// Package kat generates and verifies golden known-answer tests for the
// CHAM stack. Every KAT is produced from fixed seeds with fully
// deterministic code paths, serialized as canonical JSON (fixed field
// order, indented, trailing newline), and pinned byte-for-byte under
// testdata/. Regenerate with `go run ./cmd/chamkat -regen` after an
// intentional change; any unintentional diff is a regression in the
// numerical pipeline.
package kat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/rlwe"
)

// digest hashes a uint64 stream in little-endian order.
func digest(vals ...[]uint64) string {
	h := sha256.New()
	var w [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ctDigest hashes B then A.
func ctDigest(ct *rlwe.Ciphertext) string {
	return digest(append(append([][]uint64{}, ct.B.Coeffs...), ct.A.Coeffs...)...)
}

// lcg fills a reproducible operand stream without math/rand, so the mod
// KATs do not depend on rand's generator internals.
func lcg(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = x
	}
	return out
}

type modVector struct {
	Q          uint64   `json:"q"`
	ReduceIn   []uint64 `json:"reduce_in"`
	ReduceOut  []uint64 `json:"reduce_out"`
	MulA       []uint64 `json:"mul_a"`
	MulB       []uint64 `json:"mul_b"`
	MulOut     []uint64 `json:"mul_out"`
	CenterIn   []uint64 `json:"center_in"`
	CenterOut  []int64  `json:"center_out"`
	StreamHash string   `json:"stream_sha256"`
}

type modKAT struct {
	Comment string      `json:"comment"`
	Vectors []modVector `json:"vectors"`
}

func genMod() modKAT {
	k := modKAT{Comment: "per-modulus reduction/multiplication samples; stream_sha256 covers 4096 chained Mul/Reduce128 results"}
	for _, q := range mod.ChamModuli() {
		m := mod.New(q)
		in := lcg(q, 8)
		v := modVector{Q: q, ReduceIn: in}
		for _, x := range in {
			v.ReduceOut = append(v.ReduceOut, m.Reduce(x))
		}
		v.MulA = lcg(q^0xa5a5, 8)
		v.MulB = lcg(q^0x5a5a, 8)
		for i := range v.MulA {
			v.MulOut = append(v.MulOut, m.Mul(v.MulA[i], v.MulB[i]))
		}
		v.CenterIn = v.ReduceOut
		for _, x := range v.CenterIn {
			v.CenterOut = append(v.CenterOut, m.CenterLift(x))
		}
		stream := lcg(q^0xdead, 4096)
		acc := make([]uint64, len(stream))
		prev := uint64(1)
		for i, x := range stream {
			prev = m.Mul(prev, m.Reduce128(x, stream[len(stream)-1-i]))
			acc[i] = prev
		}
		v.StreamHash = digest(acc)
		k.Vectors = append(k.Vectors, v)
	}
	return k
}

type nttVector struct {
	N           int      `json:"n"`
	Q           uint64   `json:"q"`
	Psi         uint64   `json:"psi"`
	InputHead   []uint64 `json:"input_head"`
	ForwardHead []uint64 `json:"forward_head"`
	ForwardHash string   `json:"forward_sha256"`
	InverseHash string   `json:"inverse_sha256"`
}

type nttKAT struct {
	Comment string      `json:"comment"`
	Vectors []nttVector `json:"vectors"`
}

func genNTT() nttKAT {
	k := nttKAT{Comment: "negacyclic NTT of an LCG-filled vector; inverse_sha256 re-hashes the round trip (must equal the input stream)"}
	for _, n := range []int{256, 4096} {
		for _, q := range mod.ChamModuli() {
			tb := ntt.MustTable(n, q)
			in := lcg(uint64(n)^q, n)
			for i := range in {
				in[i] %= q
			}
			fwd := append([]uint64(nil), in...)
			tb.ForwardLazy(fwd)
			inv := append([]uint64(nil), fwd...)
			tb.InverseLazy(inv)
			k.Vectors = append(k.Vectors, nttVector{
				N: n, Q: q, Psi: tb.Psi,
				InputHead:   in[:4],
				ForwardHead: fwd[:4],
				ForwardHash: digest(fwd),
				InverseHash: digest(inv),
			})
		}
	}
	return k
}

type packKAT struct {
	Comment    string   `json:"comment"`
	N          int      `json:"n"`
	M          int      `json:"m"`
	Seed       int64    `json:"seed"`
	Mus        []uint64 `json:"mus"`
	PackedHash string   `json:"packed_sha256"`
	Decrypted  []uint64 `json:"decrypted"`
}

func genPack() (packKAT, error) {
	const n, m, seed = 256, 16, 1001
	p, err := bfv.NewChamParams(n)
	if err != nil {
		return packKAT{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, m)
	if err != nil {
		return packKAT{}, err
	}
	vec := make([]uint64, n)
	for i := range vec {
		vec[i] = rng.Uint64() % p.T.Q
	}
	ct := p.Encrypt(rng, sk, p.EncodeVector(vec), p.NormalLevels)
	cts := make([]*lwe.Ciphertext, m)
	for i := range cts {
		cts[i] = lwe.Extract(p, ct, i)
	}
	packed, err := lwe.PackLWEs(p, cts, keys)
	if err != nil {
		return packKAT{}, err
	}
	pt := p.Decrypt(packed, sk)
	stride := lwe.SlotStride(n, m)
	out := packKAT{
		Comment: "extract coefficients 0..m-1 and pack; decrypted slots must read m*mu mod t",
		N:       n, M: m, Seed: seed,
		Mus:        vec[:m],
		PackedHash: ctDigest(packed),
	}
	for i := 0; i < m; i++ {
		out.Decrypted = append(out.Decrypted, pt.Coeffs[i*stride])
	}
	return out, nil
}

type hmvpKAT struct {
	Comment    string   `json:"comment"`
	N          int      `json:"n"`
	Rows       int      `json:"rows"`
	Cols       int      `json:"cols"`
	Seed       int64    `json:"seed"`
	PackedHash []string `json:"packed_sha256"`
	Output     []uint64 `json:"output"`
	Expected   []uint64 `json:"expected"`
}

func genHMVP() (hmvpKAT, error) {
	const n, rows, cols, seed = 256, 5, 300, 2024
	p, err := bfv.NewChamParams(n)
	if err != nil {
		return hmvpKAT{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	sk := p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, rows)
	if err != nil {
		return hmvpKAT{}, err
	}
	ev.Workers = 1 // serial; results are worker-count independent, this pins the claim
	A := make([][]uint64, rows)
	for i := range A {
		A[i] = make([]uint64, cols)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, cols)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	ctV := core.EncryptVector(p, rng, sk, v)
	res, err := ev.MatVec(A, ctV)
	if err != nil {
		return hmvpKAT{}, err
	}
	out := hmvpKAT{
		Comment: "end-to-end Alg.1 HMVP with fixed seeds; output must equal the cleartext product",
		N:       n, Rows: rows, Cols: cols, Seed: seed,
		Output:   core.DecryptResult(p, res, sk),
		Expected: core.PlainMatVec(p, A, v),
	}
	for _, ct := range res.Packed {
		out.PackedHash = append(out.PackedHash, ctDigest(ct))
	}
	return out, nil
}

// Generate produces every KAT file as canonical JSON, keyed by filename.
func Generate() (map[string][]byte, error) {
	pack, err := genPack()
	if err != nil {
		return nil, err
	}
	hmvp, err := genHMVP()
	if err != nil {
		return nil, err
	}
	files := map[string]any{
		"mod.json":  genMod(),
		"ntt.json":  genNTT(),
		"pack.json": pack,
		"hmvp.json": hmvp,
	}
	out := make(map[string][]byte, len(files))
	for name, v := range files {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("kat: marshal %s: %w", name, err)
		}
		out[name] = append(b, '\n')
	}
	return out, nil
}

// Verify regenerates every KAT and compares it byte-for-byte against the
// pinned copy in dir.
func Verify(dir string) error {
	files, err := Generate()
	if err != nil {
		return err
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("kat: %s: %w (regenerate with `go run ./cmd/chamkat -regen`)", name, err)
		}
		if string(got) != string(want) {
			return fmt.Errorf("kat: %s differs from the pinned golden file; if the change is intentional run `go run ./cmd/chamkat -regen`", name)
		}
	}
	return nil
}

// Write regenerates every KAT into dir.
func Write(dir string) error {
	files, err := Generate()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
