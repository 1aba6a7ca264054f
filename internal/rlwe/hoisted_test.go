// Differential tests for the key switch — its two halves and the entry
// points composed from them — against the big.Int reference model. External test package: internal/ref itself imports rlwe.
package rlwe_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"cham/internal/mod"
	"cham/internal/ref"
	"cham/internal/ring"
	"cham/internal/rlwe"
	"cham/internal/testutil"
	"cham/internal/vec"
)

func hoistedParams(tb testing.TB, n int) rlwe.Params {
	tb.Helper()
	r, err := ring.New(n, mod.ChamModuli())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := rlwe.NewParams(r, 2, 21)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func moduliValues(r *ring.Ring, levels int) []uint64 {
	out := make([]uint64, levels)
	for l := 0; l < levels; l++ {
		out[l] = r.Moduli[l].Q
	}
	return out
}

// multiSpecialParams is the 3-normal + 2-special-limb basis of
// TestMultiSpecialLimbChain at ring degree n: the generic accumulate loop
// and a ModDown exit with more than one limb to drop.
func multiSpecialParams(tb testing.TB, n int) rlwe.Params {
	tb.Helper()
	primes, err := mod.NTTFriendlyPrimes(30, uint64(n), 5)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := ring.New(n, primes)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := rlwe.NewParams(r, 3, 21)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// bothKernelModes runs f on the host's kernels and again on the Go loops.
func bothKernelModes(t *testing.T, f func(t *testing.T)) {
	t.Run("host", f)
	t.Run("generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		f(t)
	})
}

// finishSwitch completes a key switch from a prepared decomposition the
// way KeySwitchInto does: accumulate into a zeroed full-basis pair, leave
// the NTT domain, divide the special limbs out. It returns the a-part's
// (b, a) contribution in the normal basis.
func finishSwitch(p rlwe.Params, dec *rlwe.Decomposition, swk *rlwe.SwitchingKey) (outB, outA *ring.Poly) {
	r := p.R
	c0, c1 := r.NewPoly(r.Levels()), r.NewPoly(r.Levels())
	c0.IsNTT, c1.IsNTT = true, true
	p.KeySwitchAccumulateNTT(c0, c1, dec, swk)
	r.INTT(c0)
	r.INTT(c1)
	outB, outA = r.NewPoly(p.NormalLevels), r.NewPoly(p.NormalLevels)
	r.ModDownTo(outB, c0)
	r.ModDownTo(outA, c1)
	return outB, outA
}

// requireMatchesRef fails unless got holds exactly want's residues.
func requireMatchesRef(t *testing.T, what string, got *ring.Poly, want *ref.Poly, normal []uint64) {
	t.Helper()
	rows := ref.Decompose(want, normal)
	for l := range rows {
		for i := range rows[l] {
			if got.Coeffs[l][i] != rows[l][i] {
				t.Fatalf("%s limb %d coeff %d: got %d, reference %d", what, l, i, got.Coeffs[l][i], rows[l][i])
			}
		}
	}
}

// TestKeySwitchHoistedMatchesRef: DecomposeInto + KeySwitchAccumulateNTT +
// the ModDown exit must reproduce the reference model's exact-arithmetic
// key switch bit for bit at every benchmarked ring degree — and ONE
// decomposition must serve several switching keys (the hoisting contract:
// the digit-NTTs depend only on the ciphertext, never on the key).
func TestKeySwitchHoistedMatchesRef(t *testing.T) {
	sizes := []int{256, 512}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	for _, n := range sizes {
		p := hoistedParams(t, n)
		r := p.R
		rng := testutil.NewRand(t)
		sk := p.KeyGen(rng)
		src := p.KeyGen(rng)
		full := moduliValues(r, r.Levels())
		normal := moduliValues(r, p.NormalLevels)

		// Two unrelated keys: a generic re-encryption key and an
		// automorphism key. The same decomposition drives both switches.
		swks := []*rlwe.SwitchingKey{
			p.SwitchingKeyGen(rng, sk, src.Value),
			p.AutomorphismKeyGen(rng, sk, 5),
		}

		a := r.NewPoly(p.NormalLevels)
		r.UniformPoly(rng, a)
		refA := ref.Compose(a, normal)

		dec := p.GetDecomposition()
		p.DecomposeInto(dec, a)
		for ki, swk := range swks {
			outB, outA := finishSwitch(p, dec, swk)
			refSwk := ref.ComposeSwitchingKey(r, swk, full)
			wantB, wantA := ref.KeySwitch(refA, refSwk, full, p.NormalLevels)
			requireMatchesRef(t, fmt.Sprintf("N=%d key %d part b", n, ki), outB, wantB, normal)
			requireMatchesRef(t, fmt.Sprintf("N=%d key %d part a", n, ki), outA, wantA, normal)
		}
		p.PutDecomposition(dec)
	}
}

// TestKeySwitchIntoMatchesRef: the composed entry points — KeySwitchInto
// and AutomorphCtInto — are byte-equal to the big-integer ref.KeySwitch
// and ref.AutomorphCt on the CHAM basis and on a basis with two special
// limbs to drop, on the host's kernels and on the Go loops.
func TestKeySwitchIntoMatchesRef(t *testing.T) {
	sizes := []int{256}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	bases := map[string]func(testing.TB, int) rlwe.Params{"cham": hoistedParams, "3+2": multiSpecialParams}
	bothKernelModes(t, func(t *testing.T) {
		for name, mk := range bases {
			for _, n := range sizes {
				p := mk(t, n)
				r := p.R
				rng := testutil.NewRand(t)
				sk := p.KeyGen(rng)
				src := p.KeyGen(rng)
				full := moduliValues(r, r.Levels())
				normal := moduliValues(r, p.NormalLevels)
				what := fmt.Sprintf("%s N=%d", name, n)

				ct := &rlwe.Ciphertext{B: r.NewPoly(p.NormalLevels), A: r.NewPoly(p.NormalLevels)}
				r.UniformPoly(rng, ct.B)
				r.UniformPoly(rng, ct.A)
				refCt := ref.ComposeCiphertext(ct.B, ct.A, normal)

				swk := p.SwitchingKeyGen(rng, sk, src.Value)
				out := &rlwe.Ciphertext{B: r.NewPoly(p.NormalLevels), A: r.NewPoly(p.NormalLevels)}
				p.KeySwitchInto(out, ct, swk)
				wantB, wantA := ref.KeySwitch(refCt.A, ref.ComposeSwitchingKey(r, swk, full), full, p.NormalLevels)
				requireMatchesRef(t, what+" KeySwitchInto b", out.B, wantB.Add(refCt.B), normal)
				requireMatchesRef(t, what+" KeySwitchInto a", out.A, wantA, normal)

				const k = 5
				ak := p.AutomorphismKeyGen(rng, sk, k)
				p.AutomorphCtInto(out, ct, k, ak)
				want := ref.AutomorphCt(refCt, k, ref.ComposeSwitchingKey(r, ak, full), full, p.NormalLevels)
				requireMatchesRef(t, what+" AutomorphCtInto b", out.B, want.B, normal)
				requireMatchesRef(t, what+" AutomorphCtInto a", out.A, want.A, normal)
			}
		}
	})
}

// TestKeySwitchIntoMatchesHoisted: the one-shot KeySwitchInto and an
// explicitly hoisted switch must agree, including when out aliases ct.
func TestKeySwitchIntoMatchesHoisted(t *testing.T) {
	p := hoistedParams(t, 256)
	r := p.R
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	src := p.KeyGen(rng)
	swk := p.SwitchingKeyGen(rng, sk, src.Value)

	ct := &rlwe.Ciphertext{B: r.NewPoly(p.NormalLevels), A: r.NewPoly(p.NormalLevels)}
	r.UniformPoly(rng, ct.B)
	r.UniformPoly(rng, ct.A)

	dec := p.GetDecomposition()
	p.DecomposeInto(dec, ct.A)
	wantB, wantA := finishSwitch(p, dec, swk)
	p.PutDecomposition(dec)
	r.Add(wantB, wantB, ct.B)

	p.KeySwitchInto(ct, ct, swk) // aliased in-place switch
	if !ct.B.Equal(wantB) || !ct.A.Equal(wantA) {
		t.Fatal("aliased KeySwitchInto diverges from the hoisted path")
	}
}

// TestKeySwitchAccumulateMatchesHoisted: the deferred form the packing
// tree runs — accumulate on top of two live full-basis accumulators,
// divide later. Each part must gain exactly the reference model's raw
// digit·key sum (ref.KeySwitchDeferred), whatever it held before, and
// dividing the gains must reproduce the switch finished on the spot.
func TestKeySwitchAccumulateMatchesHoisted(t *testing.T) {
	for name, mk := range map[string]func(testing.TB, int) rlwe.Params{"cham": hoistedParams, "3+2": multiSpecialParams} {
		p := mk(t, 256)
		r := p.R
		rng := testutil.NewRand(t)
		sk := p.KeyGen(rng)
		swk := p.AutomorphismKeyGen(rng, sk, 5)
		full := moduliValues(r, r.Levels())

		a := r.NewPoly(p.NormalLevels)
		r.UniformPoly(rng, a)
		dec := p.GetDecomposition()
		p.DecomposeInto(dec, a)
		wantB, wantA := finishSwitch(p, dec, swk)
		refB, refA := ref.KeySwitchDeferred(ref.Compose(a, moduliValues(r, p.NormalLevels)),
			ref.ComposeSwitchingKey(r, swk, full), full, p.NormalLevels)

		live := func() (prior, acc *ring.Poly) {
			prior = r.NewPoly(r.Levels())
			r.UniformPoly(rng, prior)
			prior.IsNTT = true
			return prior, prior.Copy()
		}
		priorB, btAcc := live()
		priorA, aAcc := live()
		p.KeySwitchAccumulateNTT(btAcc, aAcc, dec, swk)
		p.PutDecomposition(dec)

		parts := []struct {
			what       string
			acc, prior *ring.Poly
			gain       *ref.Poly
			want       *ring.Poly
		}{{"b", btAcc, priorB, refB, wantB}, {"a", aAcc, priorA, refA, wantA}}
		for _, part := range parts {
			r.Sub(part.acc, part.acc, part.prior)
			r.INTT(part.acc)
			requireMatchesRef(t, name+" gain of part "+part.what, part.acc, part.gain, full)
			got := r.NewPoly(p.NormalLevels)
			r.ModDownTo(got, part.acc)
			if !got.Equal(part.want) {
				t.Fatalf("%s part %s: deferred accumulate diverges from the switch finished on the spot", name, part.what)
			}
		}
	}
}

// TestSwitchingKeyMustBePrecomputed: a hand-built key that skipped
// Precompute is refused loudly, not indexed into.
func TestSwitchingKeyMustBePrecomputed(t *testing.T) {
	p := hoistedParams(t, 16)
	r := p.R
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	good := p.SwitchingKeyGen(rng, sk, sk.Value)
	bare := &rlwe.SwitchingKey{Bs: good.Bs, As: good.As}
	ct := p.EncryptZeroSym(rng, sk, p.NormalLevels)
	func() {
		defer func() {
			if msg, _ := recover().(string); msg != "rlwe: SwitchingKey used before Precompute" {
				t.Fatalf("recovered %q, want the Precompute invariant panic", msg)
			}
		}()
		p.KeySwitch(ct, bare)
	}()
	bare.Precompute(r)
	if !p.KeySwitch(ct, bare).B.Equal(p.KeySwitch(ct, good).B) {
		t.Fatal("a key precomputed after the fact switches differently")
	}
}

// FuzzDecomposeHoisted drives the branch-free lazy digit-decomposition
// sweep against a naive branchy centred lift to canonical residues
// followed by the one-row forward transform: identical digits for
// arbitrary inputs.
func FuzzDecomposeHoisted(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 3, 1, 4, 1, 5, 9, 2, 6})
	const fuzzN = 32
	f.Fuzz(func(t *testing.T, data []byte) {
		p := hoistedParams(t, fuzzN)
		r := p.R
		a := r.NewPoly(p.NormalLevels)
		for l := range a.Coeffs {
			q := r.Moduli[l].Q
			for i := range a.Coeffs[l] {
				var w [8]byte
				off := (l*fuzzN + i) * 8
				if off < len(data) {
					copy(w[:], data[off:])
				}
				a.Coeffs[l][i] = binary.LittleEndian.Uint64(w[:]) % q
			}
		}

		dec := p.GetDecomposition()
		defer p.PutDecomposition(dec)
		p.DecomposeInto(dec, a)

		lv := r.Levels()
		for j := 0; j < p.NormalLevels; j++ {
			qj := r.Moduli[j].Q
			half := qj / 2
			for l := 0; l < lv; l++ {
				ql := r.Moduli[l].Q
				want := make([]uint64, fuzzN)
				for i, x := range a.Coeffs[j] {
					if l == j {
						want[i] = x
					} else if x > half {
						// centred lift of a negative digit: x - q_j mod q_l
						want[i] = (x%ql + ql - qj%ql) % ql
					} else {
						want[i] = x % ql
					}
				}
				r.Tables[l].ForwardLazy(want)
				for i := range want {
					if got := dec.Digits[j].Coeffs[l][i]; got != want[i] {
						t.Fatalf("digit %d limb %d coeff %d: lazy decompose %d, naive %d",
							j, l, i, got, want[i])
					}
				}
			}
		}
	})
}
