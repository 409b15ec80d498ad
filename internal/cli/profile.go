package cli

import (
	"flag"
	"os"
	"runtime/pprof"
)

// Profile is the -pprof flag, registered the same way by every command
// that simulates or allocates, so "where did the host time go" is asked
// the same way of each.
type Profile struct {
	path string
}

// Register adds -pprof to fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.path, "pprof", "", "write a CPU profile to this file")
}

// Start begins the CPU profile if -pprof named a file. The returned stop
// flushes and closes it and must run before the process exits; without the
// flag both are no-ops.
func (p *Profile) Start() (stop func(), err error) {
	if p.path == "" {
		return func() {}, nil
	}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
