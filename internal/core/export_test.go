package core

import (
	"repro/internal/spec"
	"repro/internal/topology"
)

// BuildWordLinks is Build, except that a synchronous network runs on word
// links, the reference its flit links are held to.
func BuildWordLinks(m *topology.Mesh, uc *spec.UseCase, cfg Config) (*Network, error) {
	return build(m, uc, cfg, true)
}

// AuditStrict attaches a strict auditor to n on a fresh bus and returns
// the auditor's Resync for n. The external test package sets it: the
// option census (options_test.go) type-checks a package with its
// in-package tests, and would see a cycle if they imported internal/audit,
// whose in-package tests import this package.
var AuditStrict func(n *Network) (resync func())
