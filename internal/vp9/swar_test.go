package vp9

import (
	"math/rand"
	"testing"

	"gopim/internal/video"
)

// sadBlockRef is the byte-wise reference the SWAR path must match exactly.
func sadBlockRef(cur, ref *video.Frame, bx, by, dx, dy, bs int) int {
	var sad int
	for y := 0; y < bs; y++ {
		for x := 0; x < bs; x++ {
			d := int(cur.YAt(bx+x, by+y)) - int(ref.YAt(bx+x+dx, by+dy+y))
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

func noiseFrame(w, h int, seed int64) *video.Frame {
	f := video.NewFrame(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Y {
		f.Y[i] = uint8(rng.Intn(256))
	}
	return f
}

// TestSAD8 exercises the packed-word primitive against a byte loop,
// including the extreme values where biased subtraction could overflow a
// lane.
func TestSAD8(t *testing.T) {
	cases := [][2]uint64{
		{0, 0},
		{^uint64(0), 0},
		{0, ^uint64(0)},
		{^uint64(0), ^uint64(0)},
		{0x00ff00ff00ff00ff, 0xff00ff00ff00ff00},
		{0x0102030405060708, 0x0807060504030201},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cases = append(cases, [2]uint64{rng.Uint64(), rng.Uint64()})
	}
	for _, c := range cases {
		var want uint64
		for b := 0; b < 8; b++ {
			x := (c[0] >> (8 * b)) & 0xff
			y := (c[1] >> (8 * b)) & 0xff
			if x >= y {
				want += x - y
			} else {
				want += y - x
			}
		}
		if got := sad8(c[0], c[1]); got != want {
			t.Fatalf("sad8(%#x, %#x) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// TestSADBlockMatchesReference sweeps block positions and displacements —
// interior, straddling every frame edge, and fully outside — for the block
// sizes motion estimation uses, and requires exact agreement with the
// byte-wise reference.
func TestSADBlockMatchesReference(t *testing.T) {
	cur := noiseFrame(64, 48, 2)
	ref := noiseFrame(64, 48, 3)
	for _, bs := range []int{8, 16} {
		for _, bx := range []int{0, 1, 7, 24, 64 - bs, 64 - bs + 3} {
			for _, by := range []int{0, 5, 48 - bs, 48 - bs + 2} {
				for _, d := range [][2]int{{0, 0}, {3, -2}, {-bx - 1, 0}, {0, -by - 4}, {64, 0}, {-7, 5}, {17, 48}} {
					got := SADBlock(cur, ref, bx, by, d[0], d[1], bs)
					want := sadBlockRef(cur, ref, bx, by, d[0], d[1], bs)
					if got != want {
						t.Fatalf("SADBlock bs=%d at (%d,%d) disp (%d,%d) = %d, want %d",
							bs, bx, by, d[0], d[1], got, want)
					}
				}
			}
		}
	}
}

// TestSADBlockOddSize: non-multiple-of-8 block sizes must still work via the
// scalar path.
func TestSADBlockOddSize(t *testing.T) {
	cur := noiseFrame(32, 32, 4)
	ref := noiseFrame(32, 32, 5)
	for _, bs := range []int{4, 12} {
		got := SADBlock(cur, ref, 8, 8, 1, -1, bs)
		want := sadBlockRef(cur, ref, 8, 8, 1, -1, bs)
		if got != want {
			t.Fatalf("SADBlock bs=%d = %d, want %d", bs, got, want)
		}
	}
}

// TestSadPredMatchesScalar checks the prediction-compare fast path inside
// sub-pel refinement against a direct byte loop over the same prediction.
func TestSadPredMatchesScalar(t *testing.T) {
	cur := noiseFrame(64, 64, 6)
	ref := noiseFrame(64, 64, 7)
	const bs = 16
	pred := make([]uint8, bs*bs)
	var st MCStats
	var tmp mcTemp
	for _, pos := range [][2]int{{0, 0}, {16, 16}, {64 - bs, 64 - bs}, {3, 64 - bs}} {
		for _, mv := range []MV{{X: 0, Y: 0}, {X: 3, Y: -5}, {X: -17, Y: 9}} {
			got := sadPred(cur, ref, pos[0], pos[1], mv, pred, bs, &st, &tmp)
			PredictLuma(pred, bs, ref, pos[0], pos[1], bs, bs, mv, &st)
			var want int
			for y := 0; y < bs; y++ {
				for x := 0; x < bs; x++ {
					d := int(cur.YAt(pos[0]+x, pos[1]+y)) - int(pred[y*bs+x])
					if d < 0 {
						d = -d
					}
					want += d
				}
			}
			if got != want {
				t.Fatalf("sadPred at (%d,%d) mv %+v = %d, want %d", pos[0], pos[1], mv, got, want)
			}
		}
	}
}

// BenchmarkSWARSAD measures the word-parallel 16x16 SAD on interior blocks.
func BenchmarkSWARSAD(b *testing.B) {
	cur := noiseFrame(1280, 720, 8)
	ref := noiseFrame(1280, 720, 9)
	b.SetBytes(2 * 16 * 16)
	for i := 0; i < b.N; i++ {
		SADBlock(cur, ref, 640, 360, 3, -2, 16)
	}
}

// BenchmarkScalarSAD is the byte-wise loop the SWAR path replaces.
func BenchmarkScalarSAD(b *testing.B) {
	cur := noiseFrame(1280, 720, 8)
	ref := noiseFrame(1280, 720, 9)
	b.SetBytes(2 * 16 * 16)
	for i := 0; i < b.N; i++ {
		sadBlockRef(cur, ref, 640, 360, 3, -2, 16)
	}
}
