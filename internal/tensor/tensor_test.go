package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"waitornot/internal/xrand"
)

// naiveMatMul is the reference implementation the optimized kernels are
// checked against.
func naiveMatMul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for p := 0; p < a.Cols; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

func randomDense(rng *xrand.RNG, rows, cols int) *Dense {
	m := New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

func approxEqual(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 13, 3}, {16, 32, 8}, {3, 1, 9}, {9, 6, 1},
	}
	for _, s := range shapes {
		a := randomDense(rng, s.n, s.k)
		b := randomDense(rng, s.k, s.m)
		c := New(s.n, s.m)
		MatMul(a, b, c)
		want := naiveMatMul(a, b)
		if !approxEqual(c, want, 1e-4) {
			t.Errorf("MatMul mismatch for %dx%dx%d", s.n, s.k, s.m)
		}
	}
}

func TestMatMulOverwritesStale(t *testing.T) {
	rng := xrand.New(2)
	a := randomDense(rng, 4, 4)
	b := randomDense(rng, 4, 4)
	c := New(4, 4)
	c.Fill(999)
	MatMul(a, b, c)
	if !approxEqual(c, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMul must overwrite previous contents of c")
	}
}

func TestMatMulAddAccumulates(t *testing.T) {
	rng := xrand.New(3)
	a := randomDense(rng, 3, 5)
	b := randomDense(rng, 5, 2)
	c := New(3, 2)
	c.Fill(1)
	MatMulAdd(a, b, c)
	want := naiveMatMul(a, b)
	for i := range want.Data {
		want.Data[i]++
	}
	if !approxEqual(c, want, 1e-4) {
		t.Fatal("MatMulAdd mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := xrand.New(4)
	a := randomDense(rng, 6, 7)
	bt := randomDense(rng, 9, 7) // b = btᵀ is 7x9
	c := New(6, 9)
	MatMulTransB(a, bt, c)

	b := New(7, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			b.Set(j, i, bt.At(i, j))
		}
	}
	if !approxEqual(c, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := xrand.New(5)
	at := randomDense(rng, 7, 6) // a = atᵀ is 6x7
	b := randomDense(rng, 7, 4)
	c := New(6, 4)
	MatMulTransA(at, b, c)

	a := New(6, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 6; j++ {
			a.Set(j, i, at.At(i, j))
		}
	}
	if !approxEqual(c, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulTransA mismatch")
	}
}

// refMatMulTransAAdd is the p-outer c += aᵀ*b loop MatMulTransAAdd
// replaced. It fixes the order the kernel must keep: every c[i][j]
// gets a[p][i]*b[p][j] added one p at a time in ascending p, skipping
// each p whose a-value is zero.
func refMatMulTransAAdd(a, b, c *Dense) {
	k, n, m := a.Rows, a.Cols, b.Cols
	for p := 0; p < k; p++ {
		ap := a.Data[p*n : (p+1)*n]
		bp := b.Data[p*m : (p+1)*m]
		for i := 0; i < n; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			ci := c.Data[i*m : (i+1)*m]
			for j := range ci {
				ci[j] += av * bp[j]
			}
		}
	}
}

// firstBitDiff returns the first index where got and want differ in
// their bit patterns, or -1. NaNs compare as one class: which operand's
// payload an add propagates is up to the instruction's operand order,
// not the order of the adds.
func firstBitDiff(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i
		}
	}
	return -1
}

// transAAddCase builds a (k x n), b (k x m) and c (n x m) for a
// bit-exact check of MatMulTransAAdd. Needs k >= 9.
//
// a is ReLU-like: about half its entries are +0 or -0, the rest of
// either sign spread over 2^-8..2^8. b and c mix signs and magnitudes;
// c holds some -0. Column 0 of a and of b carry two plants for
// c[0][0] = 1:
//   - p = 0..3 add 2^24, -2^24, 0.5 and 0.5: in order that gives 1,
//     any regrouping gives 2;
//   - p = 4 has a = -0 against b = +Inf, and p = 5..7 add 0.25 each,
//     so c[0][0] ends at 1.75 only if that zero a-value is skipped
//     inside a group whose other a-values are not zero; otherwise it
//     turns NaN. Row 0 of a is zero after p = 7.
//
// Further ±Inf and NaN sit in b at p >= 8, where row 0 of a is zero,
// and in a below row 0.
func transAAddCase(rng *xrand.RNG, k, n, m int) (a, b, c *Dense) {
	negZero := float32(math.Copysign(0, -1))
	spread := func() float32 {
		v := float32(math.Ldexp(1+rng.Float64(), rng.Intn(17)-8))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	a, b, c = New(k, n), New(k, m), New(n, m)
	for i := range a.Data {
		switch rng.Intn(4) {
		case 0:
			a.Data[i] = negZero
		case 1:
		default:
			a.Data[i] = spread()
		}
	}
	for i := range b.Data {
		b.Data[i] = spread()
	}
	for i := range c.Data {
		if rng.Intn(5) == 0 {
			c.Data[i] = negZero
		} else {
			c.Data[i] = spread()
		}
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, v := range []float32{inf, -inf, nan} {
		b.Set(8+rng.Intn(k-8), rng.Intn(m), v)
		if n > 1 {
			a.Set(rng.Intn(k), 1+rng.Intn(n-1), v)
		}
	}
	for p := 0; p < k; p++ {
		a.Set(p, 0, 0)
	}
	for p, v := range []float32{1 << 12, -1 << 12, 0.5, 0.5, negZero, 0.25, 0.25, 0.25} {
		a.Set(p, 0, v)
	}
	for p, v := range []float32{1 << 12, 1 << 12, 1, 1, inf, 1, 1, 1} {
		b.Set(p, 0, v)
	}
	c.Set(0, 0, 1)
	return a, b, c
}

func TestMatMulTransAAddBitExact(t *testing.T) {
	rng := xrand.New(8)
	// k is never a multiple of 4 here, so every case has a tail; n = 1
	// and m = 1 are the degenerate row and column shapes.
	shapes := []struct{ k, n, m int }{
		{9, 1, 1}, {9, 1, 7}, {10, 5, 1}, {11, 3, 3}, {13, 7, 2}, {33, 20, 10}, {35, 64, 17},
	}
	for _, s := range shapes {
		a, b, c := transAAddCase(rng, s.k, s.n, s.m)
		want := c.Clone()
		refMatMulTransAAdd(a, b, want)
		if w := want.At(0, 0); w != 1.75 {
			t.Fatalf("k=%d n=%d m=%d: reference plant gives %v, want 1.75", s.k, s.n, s.m, w)
		}
		MatMulTransAAdd(a, b, c)
		if i := firstBitDiff(c.Data, want.Data); i >= 0 {
			t.Errorf("k=%d n=%d m=%d: c[%d][%d] = %v (%#08x), reference %v (%#08x)",
				s.k, s.n, s.m, i/s.m, i%s.m, c.Data[i], math.Float32bits(c.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// FuzzGEMMExact: on fuzz-chosen shapes and values (the byte stream
// indexes a table of exact zeros, infinities, NaN and values whose sums
// round), MatMulTransAAdd must agree with the p-outer reference bit for
// bit, and MatMulTransA must equal it from a zeroed c.
func FuzzGEMMExact(f *testing.F) {
	// a = 1,1,1,1,0,1,1,1; b = 2^24,-2^24,0.5,0.5,+Inf,1,1,1; c = 1:
	// in order c ends at 4, regrouped at 5, without the zero skip NaN.
	f.Add(uint8(8), uint8(1), uint8(1), []byte{5, 5, 5, 5, 0, 5, 5, 5, 8, 9, 7, 7, 2, 5, 5, 5, 5})
	f.Add(uint8(5), uint8(3), uint8(2), []byte{12, 0, 13, 1, 14, 200, 17, 31, 255})
	f.Add(uint8(0), uint8(4), uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, k, n, m uint8, vals []byte) {
		kk, nn, mm := int(k%40), int(n%24), int(m%24)
		table := []float32{
			0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.NaN()), 1, -1, 0.5, 1 << 24, -1 << 24, 1 << 12, -1 << 12,
			3, 1.0 / 3, math.MaxFloat32, math.SmallestNonzeroFloat32,
		}
		next := 0
		val := func() float32 {
			if len(vals) == 0 {
				return 0
			}
			v := vals[next%len(vals)]
			next++
			if int(v) < len(table) {
				return table[v]
			}
			// Every other byte is a finite value with its own
			// magnitude, so sums round differently when regrouped.
			return float32(math.Ldexp(float64(int8(v)), int(v%29)-14))
		}
		a, b, c := New(kk, nn), New(kk, mm), New(nn, mm)
		for _, d := range []*Dense{a, b, c} {
			for i := range d.Data {
				d.Data[i] = val()
			}
		}
		want := c.Clone()
		refMatMulTransAAdd(a, b, want)
		MatMulTransAAdd(a, b, c)
		if i := firstBitDiff(c.Data, want.Data); i >= 0 {
			t.Fatalf("%dx%d x %dx%d: element %d is %#08x, reference %#08x", kk, nn, kk, mm, i,
				math.Float32bits(c.Data[i]), math.Float32bits(want.Data[i]))
		}
		fresh := New(nn, mm)
		MatMulTransAAdd(a, b, fresh)
		viaTransA := New(nn, mm)
		viaTransA.Fill(7) // MatMulTransA must overwrite
		MatMulTransA(a, b, viaTransA)
		if i := firstBitDiff(viaTransA.Data, fresh.Data); i >= 0 {
			t.Fatalf("MatMulTransA differs from MatMulTransAAdd into zeros at %d", i)
		}
	})
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5), New(2, 5))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A*B)*C == A*(B*C) within float tolerance.
	rng := xrand.New(6)
	check := func(seed uint64) bool {
		r := rng.Derive("assoc").Derive(string(rune(seed % 1000)))
		a := randomDense(r, 4, 5)
		b := randomDense(r, 5, 3)
		c := randomDense(r, 3, 6)
		ab := New(4, 3)
		MatMul(a, b, ab)
		abc1 := New(4, 6)
		MatMul(ab, c, abc1)
		bc := New(5, 6)
		MatMul(b, c, bc)
		abc2 := New(4, 6)
		MatMul(a, bc, abc2)
		return approxEqual(abc1, abc2, 1e-3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRowVector(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddRowVector: got %v want %v", m.Data, want)
		}
	}
	sums := ColSums(m)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums: got %v", sums)
	}
}

func TestAxpyScaleDot(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 10, 10}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 14 || y[2] != 16 {
		t.Fatalf("Axpy: got %v", y)
	}
	Scale(0.5, y)
	if y[0] != 6 || y[1] != 7 || y[2] != 8 {
		t.Fatalf("Scale: got %v", y)
	}
	if d := Dot(x, x); d != 14 {
		t.Fatalf("Dot: got %v", d)
	}
}

func TestNorm2(t *testing.T) {
	if n := Norm2([]float32{3, 4}); math.Abs(n-5) > 1e-9 {
		t.Fatalf("Norm2: got %v", n)
	}
	if n := Norm2(nil); n != 0 {
		t.Fatalf("Norm2(nil): got %v", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone must not alias storage")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1: patch matrix is just the image reshaped.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 1, KW: 1, Stride: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := New(9, 1)
	Im2Col(g, x, out)
	for i, v := range x {
		if out.Data[i] != v {
			t.Fatalf("identity im2col: got %v", out.Data)
		}
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 2x2 input, 2x2 kernel, stride 1, no pad -> single patch.
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, Stride: 1}
	x := []float32{1, 2, 3, 4}
	out := New(1, 4)
	Im2Col(g, x, out)
	for i, v := range []float32{1, 2, 3, 4} {
		if out.Data[i] != v {
			t.Fatalf("got %v", out.Data)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	// 1x1 input, 3x3 kernel, pad 1 -> one patch with the value centered.
	g := ConvGeom{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float32{7}
	out := New(1, 9)
	Im2Col(g, x, out)
	for i, v := range out.Data {
		want := float32(0)
		if i == 4 {
			want = 7
		}
		if v != want {
			t.Fatalf("pad patch wrong at %d: %v", i, out.Data)
		}
	}
}

func TestIm2ColMultiChannelStride(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	if g.OutH() != 2 || g.OutW() != 2 || g.PatchLen() != 8 {
		t.Fatalf("geometry wrong: %d %d %d", g.OutH(), g.OutW(), g.PatchLen())
	}
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(i)
	}
	out := New(4, 8)
	Im2Col(g, x, out)
	// First patch, channel 0 is rows {0,1} cols {0,1} = 0,1,4,5;
	// channel 1 adds 16.
	want := []float32{0, 1, 4, 5, 16, 17, 20, 21}
	for i, v := range want {
		if out.Row(0)[i] != v {
			t.Fatalf("patch 0: got %v want %v", out.Row(0), want)
		}
	}
}

func TestCol2ImRoundTripProperty(t *testing.T) {
	// For stride >= kernel (non-overlapping patches, no padding),
	// Col2Im(Im2Col(x)) == x.
	g := ConvGeom{InC: 2, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
	rng := xrand.New(77)
	x := make([]float32, g.InC*g.InH*g.InW)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	cols := New(g.OutH()*g.OutW(), g.PatchLen())
	Im2Col(g, x, cols)
	back := make([]float32, len(x))
	Col2Im(g, cols, back)
	for i := range x {
		if x[i] != back[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1},
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 0},
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }

func benchMatMul(b *testing.B, n int) {
	rng := xrand.New(1)
	a := randomDense(rng, n, n)
	bb := randomDense(rng, n, n)
	c := New(n, n)
	b.SetBytes(int64(n * n * n * 2)) // FLOPs as "bytes" for ops/s readout
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, bb, c)
	}
}
