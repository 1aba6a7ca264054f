package core

import (
	"testing"

	"cham/internal/vec"
)

// TestHMVPDifferentialN256Generic reruns the N=256 differential with the
// vector kernels forced off, so on an AVX-512 IFMA host the portable Go
// loops are held to the same reference model as the accelerated path that
// TestHMVPDifferentialN256 exercises.
func TestHMVPDifferentialN256Generic(t *testing.T) {
	vec.ForceGeneric(t)
	TestHMVPDifferentialN256(t)
}
