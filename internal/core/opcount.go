package core

import "math/bits"

// OpCounts tallies the functional-unit work of homomorphic kernels in
// device-neutral units. One "NTT" is a single-limb polynomial transform
// ((N/2)·log2 N butterflies); one "MultPoly" is a single-limb
// coefficient-wise multiplication (N modular multiplies); Rescale and
// Extract are coefficient-wise passes. These counts drive the roofline
// model (Fig. 2a) and cross-check the pipeline simulator.
type OpCounts struct {
	NTT       int // forward single-limb transforms
	INTT      int // inverse single-limb transforms
	MultPoly  int // coefficient-wise limb multiplications
	Rescale   int // ModDown limb passes
	Extract   int // EXTRACTLWES passes
	PackRed   int // PACKTWOLWES reductions
	KeySwitch int // key-switch invocations (inside PackRed and others)
}

// Add accumulates other into c.
func (c *OpCounts) Add(o OpCounts) {
	c.NTT += o.NTT
	c.INTT += o.INTT
	c.MultPoly += o.MultPoly
	c.Rescale += o.Rescale
	c.Extract += o.Extract
	c.PackRed += o.PackRed
	c.KeySwitch += o.KeySwitch
}

// Scale multiplies every counter by k.
func (c OpCounts) Scale(k int) OpCounts {
	return OpCounts{
		NTT:       c.NTT * k,
		INTT:      c.INTT * k,
		MultPoly:  c.MultPoly * k,
		Rescale:   c.Rescale * k,
		Extract:   c.Extract * k,
		PackRed:   c.PackRed * k,
		KeySwitch: c.KeySwitch * k,
	}
}

// ModMuls converts the counts into total modular multiplications for a
// degree-n ring — the paper's roofline operation (one 27x18 DSP multiply
// approximates one modular-multiply datapath step).
func (c OpCounts) ModMuls(n int) int64 {
	logN := bits.Len(uint(n)) - 1
	perNTT := int64(n/2) * int64(logN)
	total := int64(c.NTT+c.INTT)*perNTT + int64(c.MultPoly)*int64(n)
	// Rescale: one scalar-inverse multiply per coefficient per limb pass.
	total += int64(c.Rescale) * int64(n)
	// Extract is data movement only.
	return total
}

// KeySwitchOps returns the per-invocation cost of one hybrid key switch at
// the given basis sizes: dnum digit NTTs over the full basis, the key
// products, the inverse transforms and the ModDown passes.
func KeySwitchOps(normalLevels, fullLevels int) OpCounts {
	dnum := normalLevels
	return OpCounts{
		NTT:       dnum * fullLevels,     // each decomposed digit, all limbs
		MultPoly:  2 * dnum * fullLevels, // digit × (B_j, A_j)
		INTT:      2 * fullLevels,        // both output polys
		Rescale:   2 * normalLevels,      // ModDown both polys
		KeySwitch: 1,
	}
}

// HMVPOps returns the total work of Alg. 1 on an m×cols matrix at ring
// degree n with the given basis sizes. The encrypted vector's forward
// transform is counted once per column chunk (it is reused across rows).
func HMVPOps(n, normalLevels, fullLevels, m, cols int) OpCounts {
	if cols < 1 {
		cols = 1
	}
	chunks := (cols + n - 1) / n
	var total OpCounts

	// One-time: forward-transform each vector chunk (2 polys, full basis).
	total.NTT += 2 * fullLevels * chunks

	// Per row, per chunk: stage 1 plaintext NTT, stage 2 MULTPOLY,
	// stage 3 INTT, stage 4 RESCALE+EXTRACT.
	perRow := OpCounts{
		NTT:      fullLevels,       // plaintext limbs
		MultPoly: 2 * fullLevels,   // (b, a) × pt
		INTT:     2 * fullLevels,   // back to coefficient domain
		Rescale:  2 * normalLevels, // drop the special limb
		Extract:  1,
	}
	total.Add(perRow.Scale(m * chunks))

	// Packing: per tile of up to n rows, mPad-1 reductions, each costing
	// one key switch (the automorphism itself is a permutation).
	for ti := 0; ti*n < m; ti++ {
		red := tileLayout(m, n, ti).Pad - 1
		total.PackRed += red
		total.Add(KeySwitchOps(normalLevels, fullLevels).Scale(red))
	}
	return total
}

// BatchHMVPOps is the §II-E baseline cost: per row one slot multiply plus
// log2(N) trace key switches — O(m·log N) key switches total.
func BatchHMVPOps(n, normalLevels, fullLevels, m int) OpCounts {
	logN := bits.Len(uint(n)) - 1
	var total OpCounts
	total.NTT += 2 * fullLevels // vector transform, once
	perRow := OpCounts{
		NTT:      fullLevels,
		MultPoly: 2 * fullLevels,
		INTT:     2 * fullLevels,
		Rescale:  2 * normalLevels,
	}
	perRow.Add(KeySwitchOps(normalLevels, fullLevels).Scale(logN))
	total.Add(perRow.Scale(m))
	return total
}

// HMVPBytes estimates the DRAM traffic of one HMVP in bytes: the matrix
// plaintexts stream in once, the vector ciphertext once, and one packed
// ciphertext streams out per tile. Words are packed at their modulus bit
// widths, rounded to whole bytes per coefficient.
func HMVPBytes(n, normalLevels, fullLevels, m, cols int, limbBits []int, tBits int) int64 {
	if cols < 1 {
		cols = 1
	}
	chunks := (cols + n - 1) / n
	coeffBytes := func(bits int) int64 { return int64((bits + 7) / 8) }
	var total int64
	// Matrix rows arrive as mod-t cleartext (encoded on the fly).
	total += int64(m) * int64(cols) * coeffBytes(tBits)
	// Vector: 2 polys × fullLevels limbs per chunk.
	for l := 0; l < fullLevels; l++ {
		total += int64(chunks) * 2 * int64(n) * coeffBytes(limbBits[l])
	}
	// Output: one normal-basis ciphertext per tile.
	tiles := (m + n - 1) / n
	for l := 0; l < normalLevels; l++ {
		total += int64(tiles) * 2 * int64(n) * coeffBytes(limbBits[l])
	}
	return total
}
