package vp9

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gopim/internal/video"
)

// predictLumaRef is the scalar PredictLuma the fast path replaced, kept
// unchanged as the test oracle: every sample goes through YAt's clamping
// and every filter runs all 8 taps.
func predictLumaRef(dst []uint8, stride int, ref *video.Frame, bx, by, w, h int, mv MV, st *MCStats) {
	intX, fracX := floorDiv(mv.X, MVPrecision)
	intY, fracY := floorDiv(mv.Y, MVPrecision)
	srcX := bx + intX
	srcY := by + intY

	st.Blocks++
	st.PixelsProduced += uint64(w * h)

	if fracX == 0 && fracY == 0 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[y*stride+x] = ref.YAt(srcX+x, srcY+y)
			}
		}
		st.RefPixelsRead += uint64(w * h)
		return
	}

	st.SubPelBlocks++
	const apron = 7
	tmpH := h + apron
	var tmpArr [MBSize * (MBSize + apron)]int32
	tmp := tmpArr[:]
	if w*tmpH > len(tmpArr) {
		tmp = make([]int32, w*tmpH)
	} else {
		tmp = tmpArr[:w*tmpH]
	}
	fx := subPelFilters[fracX]
	for y := 0; y < tmpH; y++ {
		ry := srcY + y - apron/2 - 1
		for x := 0; x < w; x++ {
			var acc int32
			for t := 0; t < 8; t++ {
				acc += fx[t] * int32(ref.YAt(srcX+x+t-3, ry))
			}
			tmp[y*w+x] = acc
		}
	}
	st.RefPixelsRead += uint64((w + apron) * tmpH)
	st.FilterTapMults += uint64(w * tmpH * 8)

	fy := subPelFilters[fracY]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc int32
			for t := 0; t < 8; t++ {
				acc += fy[t] * tmp[(y+t)*w+x]
			}
			dst[y*stride+x] = clampPel((acc + 8192) >> 14)
		}
	}
	st.FilterTapMults += uint64(w * h * 8)
}

// randomFrame fills a w x h frame with seeded noise: uniform samples
// exercise every tap weight, including the clamp at both ends of clampPel.
func randomFrame(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	rng.Read(f.Y)
	return f
}

// comparePredict runs the oracle and PredictLuma on one block, and
// predictLuma with a reused intermediate buffer full of stale values, and
// reports the first difference in dst (including bytes outside the w x h
// window, which none may touch) or in the stats.
func comparePredict(ref *video.Frame, stride, bx, by, w, h int, mv MV) error {
	n := (h-1)*stride + w + stride // one spare row past the block
	want := bytes.Repeat([]byte{0xA5}, n)
	var wantSt MCStats
	predictLumaRef(want, stride, ref, bx, by, w, h, mv, &wantSt)

	var stale mcTemp
	for i := range stale {
		stale[i] = int32(i) * 104729
	}
	for _, tmp := range []*mcTemp{nil, &stale} {
		got := bytes.Repeat([]byte{0xA5}, n)
		var gotSt MCStats
		predictLuma(got, stride, ref, bx, by, w, h, mv, &gotSt, tmp)
		if gotSt != wantSt {
			return fmt.Errorf("reused buffer %t: stats %+v, want %+v", tmp != nil, gotSt, wantSt)
		}
		if i := firstDiff(got, want); i >= 0 {
			return fmt.Errorf("reused buffer %t: dst[%d] (row %d col %d) = %d, want %d",
				tmp != nil, i, i/stride, i%stride, got[i], want[i])
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestPredictLumaMatchesScalar checks the fast PredictLuma against the
// scalar oracle byte for byte and counter for counter, over every
// (fracX, fracY) phase pair, each block shape the codec uses, a padded
// stride, and block positions in the interior, on every edge and corner,
// and displaced far outside the frame. The 16x16 frame is too small for
// any apron to fit, so it pins the fallback path alone.
func TestPredictLumaMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, fs := range [][2]int{{16, 16}, {48, 32}, {96, 64}} {
		ref := randomFrame(rng, fs[0], fs[1])
		for _, bs := range [][2]int{{8, 8}, {16, 16}, {16, 8}} {
			w, h := bs[0], bs[1]
			if w > ref.W || h > ref.H {
				continue
			}
			// Positions: corners, edge midpoints, interior.
			xs := []int{0, (ref.W - w) / 2, ref.W - w}
			ys := []int{0, (ref.H - h) / 2, ref.H - h}
			// Whole-pel offsets: none, one pel, both sides of the point
			// where the apron leaves the frame (3 columns / 4 rows before
			// a block, 4 columns / 3 rows after it), and far out of frame.
			offs := []int{0, 1, -1, 2, -2, 3, -3, 4, -4, 40, -1000}
			for _, stride := range []int{w, w + 5} {
				for _, bx := range xs {
					for _, by := range ys {
						for fracX := 0; fracX < MVPrecision; fracX++ {
							for fracY := 0; fracY < MVPrecision; fracY++ {
								ox := offs[rng.Intn(len(offs))]
								oy := offs[rng.Intn(len(offs))]
								mv := MV{X: ox*MVPrecision + fracX, Y: oy*MVPrecision + fracY}
								if err := comparePredict(ref, stride, bx, by, w, h, mv); err != nil {
									t.Fatalf("frame %dx%d block %dx%d at (%d,%d) stride %d mv %+v: %v",
										ref.W, ref.H, w, h, bx, by, stride, mv, err)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPredictLumaMatchesScalarRandom adds seeded random blocks anywhere in
// (and around) the frame, with random strides.
func TestPredictLumaMatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := randomFrame(rng, 64, 48)
	shapes := [][2]int{{8, 8}, {16, 16}, {16, 8}}
	for i := 0; i < 5000; i++ {
		s := shapes[rng.Intn(len(shapes))]
		w, h := s[0], s[1]
		bx, by := rng.Intn(ref.W-w+1), rng.Intn(ref.H-h+1)
		mv := MV{X: rng.Intn(321) - 160, Y: rng.Intn(321) - 160}
		stride := w + rng.Intn(4)
		if err := comparePredict(ref, stride, bx, by, w, h, mv); err != nil {
			t.Fatalf("block %dx%d at (%d,%d) stride %d mv %+v: %v", w, h, bx, by, stride, mv, err)
		}
	}
}

// TestCodeClipPinned pins a small encode's fingerprint (a hash of the coded
// bitstreams) and every work counter, so any change to prediction, search
// or stats accounting shows up here before the end-to-end sweeps.
func TestCodeClipPinned(t *testing.T) {
	clip, err := CodeClip(192, 128, 4, 28, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clip.Fingerprint(), "192x128 q28 f4 h4f5a0d4149fa2ae6"; got != want {
		t.Errorf("fingerprint %q, want %q", got, want)
	}
	want := Stats{
		ME: MEStats{Blocks: 864, SADs: 23039, RefPixelsRead: 11948073, SubPelProbes: 21412},
		MC: MCStats{Blocks: 425, SubPelBlocks: 119, RefPixelsRead: 97671,
			PixelsProduced: 73472, FilterTapMults: 333568},
		Deblock: DeblockStats{EdgesChecked: 71168, EdgesFiltered: 41003,
			PixelsRead: 284672, PixelsWritten: 146418},
		IntraMBs: 97, InterMBs: 287, BitstreamBytes: 9344, FramesCoded: 4,
	}
	if clip.EncStats != want {
		t.Errorf("EncStats\n got %+v\nwant %+v", clip.EncStats, want)
	}
}

// FuzzPredictLuma compares PredictLuma with the scalar oracle on arbitrary
// frame sizes, block positions (inside the frame or not), block shapes,
// strides and motion vectors.
func FuzzPredictLuma(f *testing.F) {
	f.Add(uint8(47), uint8(31), int16(40), int16(24), uint8(1), int32(5), int32(3), uint8(0), int64(1))
	f.Add(uint8(7), uint8(7), int16(0), int16(0), uint8(0), int32(-9), int32(12), uint8(3), int64(2))
	f.Add(uint8(63), uint8(63), int16(120), int16(-5), uint8(2), int32(-8000), int32(77), uint8(1), int64(3))
	f.Add(uint8(20), uint8(20), int16(3), int16(4), uint8(1), int32(16), int32(0), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, fw, fh uint8, bx, by int16, shape uint8, mvx, mvy int32, pad uint8, seed int64) {
		shapes := [][2]int{{8, 8}, {16, 16}, {16, 8}}
		s := shapes[int(shape)%len(shapes)]
		w, h := s[0], s[1]
		ref := randomFrame(rand.New(rand.NewSource(seed)), 2*(1+int(fw)%64), 2*(1+int(fh)%64))
		mv := MV{X: int(mvx), Y: int(mvy)}
		if err := comparePredict(ref, w+int(pad)%8, int(bx), int(by), w, h, mv); err != nil {
			t.Fatalf("frame %dx%d block %dx%d at (%d,%d) mv %+v: %v", ref.W, ref.H, w, h, bx, by, mv, err)
		}
	})
}
