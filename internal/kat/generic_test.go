package kat

import (
	"testing"

	"cham/internal/vec"
)

// TestGoldenKATsGeneric checks the golden files with the vector kernels
// forced off: both code paths must reproduce the same bytes.
func TestGoldenKATsGeneric(t *testing.T) {
	vec.ForceGeneric(t)
	TestGoldenKATs(t)
}
