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
