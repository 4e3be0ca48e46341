// Command gencircuits regenerates the checked-in compiled sampler circuits
// in internal/sampler/gen.  It writes into the current directory, so run
// it through go generate in that package:
//
//	go generate ./internal/sampler/gen
package main

import (
	"fmt"
	"os"

	"ctgauss/internal/core"
)

func main() {
	if os.Getenv("GOPACKAGE") != "gen" {
		fmt.Fprintln(os.Stderr, "gencircuits: run through go generate ./internal/sampler/gen")
		os.Exit(2)
	}
	for _, cfg := range []struct{ sigma, file, fn string }{
		{"2", "sigma2.go", "Sigma2Batch"},
		{"6.15543", "sigma615543.go", "Sigma615543Batch"},
	} {
		b, err := core.Build(core.Config{Sigma: cfg.sigma, N: 128, TailCut: 13, Min: core.MinimizeExact})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(cfg.file, []byte(b.Program.EmitGoFile("gen", cfg.fn)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d ops)\n", cfg.file, b.Program.OpCount())
	}
}
