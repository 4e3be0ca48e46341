// Package gen holds the generated constant-time sampler circuits for the
// paper's two evaluation configurations (σ=2 and σ=6.15543, n=128, τ=13),
// emitted by the pipeline's code generator — the deployment artifact the
// paper's published tool produces.  Regenerate with:
//
//	go generate ./internal/sampler/gen
package gen

//go:generate go run ctgauss/cmd/internal/gencircuits
