// Package cli fixes the exit-path contract shared by every aelite
// command. All commands (aelite-sim, aelite-exp, aelite-alloc,
// aelite-serve) exit through the same three doors:
//
//	2 (ExitUsage)   the invocation is malformed — a bad flag value, an
//	                unknown subcommand, a contradictory flag combination.
//	                Rejected up front, before anything is built.
//	1 (ExitFailure) the invocation is well-formed but the run failed — a
//	                missing spec file, an infeasible allocation, a missed
//	                requirement.
//	3 (ExitFatal)   a recovered panic — an internal invariant broke.
//
// Every path prints exactly one "tool: message" diagnostic line to
// standard error (ExitFatal prefixes the message with "fatal:"), the
// style set by the PR 1 fault layer: a one-line diagnostic instead of a
// raw stack trace.
//
// The package also owns the flags commands share: RegisterWorkload binds
// the backend.Workload that aelite-sim and aelite-alloc build, so both
// read the same command line the same way, and Profile is the -pprof flag
// of aelite-sim, aelite-exp and aelite-alloc.
package cli

import (
	"fmt"
	"io"
	"os"
)

// Exit codes of the shared contract.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
	ExitFatal   = 3
)

// Stderr receives the diagnostics; tests swap it for a buffer.
var Stderr io.Writer = os.Stderr

// Usage prints the one-line diagnostic for a malformed invocation and
// returns ExitUsage for main to pass to os.Exit.
func Usage(tool string, err error) int {
	fmt.Fprintf(Stderr, "%s: %v\n", tool, err)
	return ExitUsage
}

// Failure prints the one-line diagnostic for a failed run and returns
// ExitFailure.
func Failure(tool string, err error) int {
	fmt.Fprintf(Stderr, "%s: %v\n", tool, err)
	return ExitFailure
}

// Fatal prints the one-line diagnostic for a recovered panic value and
// returns ExitFatal.
func Fatal(tool string, recovered any) int {
	fmt.Fprintf(Stderr, "%s: fatal: %v\n", tool, recovered)
	return ExitFatal
}
