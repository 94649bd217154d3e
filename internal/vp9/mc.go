package vp9

import (
	"math"

	"gopim/internal/video"
)

// Motion compensation (paper Figure 9, block 3). Motion vectors have
// 1/8-pixel resolution; fractional positions are interpolated with the
// 8-tap filter bank below (the even phases of libvpx's eighttap-regular
// filter), exactly the operation the paper identifies as the dominant
// source of decoder data movement.

// MVPrecision is the denominator of motion vector units: 8 units per pixel.
const MVPrecision = 8

// subPelFilters holds one 8-tap filter per 1/8-pel phase, taps summing to
// 128. The bank is a Lanczos-windowed sinc (a=4), the same family as
// libvpx's eighttap filters; phase p interpolates at p/8 of a pixel, so
// phase 4 is the symmetric half-pel filter.
var subPelFilters = buildSubPelFilters()

func buildSubPelFilters() [MVPrecision][8]int32 {
	var out [MVPrecision][8]int32
	out[0][3] = 128
	for p := 1; p < MVPrecision; p++ {
		frac := float64(p) / MVPrecision
		var w [8]float64
		var sum float64
		for t := 0; t < 8; t++ {
			x := float64(t) - 3 - frac
			w[t] = sinc(x) * sinc(x/4) // Lanczos window, a = 4
			sum += w[t]
		}
		// Quantize to integers summing to exactly 128.
		total := int32(0)
		maxIdx := 0
		for t := 0; t < 8; t++ {
			out[p][t] = int32(math.Round(w[t] / sum * 128))
			total += out[p][t]
			if out[p][t] > out[p][maxIdx] {
				maxIdx = t
			}
		}
		out[p][maxIdx] += 128 - total
	}
	return out
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// MV is a motion vector in 1/8-pel units.
type MV struct {
	X, Y int
}

// MCStats counts the work motion compensation performs, for the hardware
// traffic model and the instrumented kernels.
type MCStats struct {
	Blocks         uint64 // blocks predicted
	SubPelBlocks   uint64 // blocks needing interpolation
	RefPixelsRead  uint64 // reference pixels fetched (including filter apron)
	PixelsProduced uint64 // predicted pixels written
	FilterTapMults uint64 // multiply-accumulates spent in filters
}

// PredictLuma writes the w x h luma prediction for the block at (bx, by)
// displaced by mv, reading from ref. dst is row-major with the given
// stride. Out-of-frame reference samples clamp to the edge.
//
// Blocks whose reference window (including the filter apron) lies inside
// the frame read ref.Y rows directly: whole-pel blocks are row copies and
// the 8-tap passes are unrolled over raw row slices. Blocks that touch an
// edge or point outside the frame take the per-sample clamped loop. Both
// paths do the same integer arithmetic, so the output and MCStats do not
// depend on which one runs.
func PredictLuma(dst []uint8, stride int, ref *video.Frame, bx, by, w, h int, mv MV, st *MCStats) {
	predictLuma(dst, stride, ref, bx, by, w, h, mv, st, nil)
}

// mcApron is the rows and columns the 8-tap filters read beyond a block
// (3 before and 4 after each output sample).
const mcApron = 7

// mcTemp holds the horizontal pass's output for blocks up to MBSize: w
// columns by h+mcApron rows. A caller that predicts many blocks one after
// another (sub-pel refinement) keeps one and passes it to predictLuma, so
// it is not cleared for every block.
type mcTemp [MBSize * (MBSize + mcApron)]int32

// predictLuma is PredictLuma with a caller-supplied intermediate buffer;
// its prior contents are never read. A nil tmpArr gets a fresh one, only
// when the block needs filtering.
func predictLuma(dst []uint8, stride int, ref *video.Frame, bx, by, w, h int, mv MV, st *MCStats, tmpArr *mcTemp) {
	intX, fracX := floorDiv(mv.X, MVPrecision)
	intY, fracY := floorDiv(mv.Y, MVPrecision)
	srcX := bx + intX
	srcY := by + intY

	st.Blocks++
	st.PixelsProduced += uint64(w * h)

	if fracX == 0 && fracY == 0 {
		if srcX >= 0 && srcY >= 0 && srcX <= ref.W-w && srcY <= ref.H-h {
			for y := 0; y < h; y++ {
				row := (srcY+y)*ref.W + srcX
				copy(dst[y*stride:y*stride+w], ref.Y[row:row+w])
			}
		} else {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dst[y*stride+x] = ref.YAt(srcX+x, srcY+y)
				}
			}
		}
		st.RefPixelsRead += uint64(w * h)
		return
	}

	st.SubPelBlocks++
	// Horizontal pass into an intermediate buffer tall enough for the
	// vertical filter's apron (h + 7 rows). In the worst case the decoder
	// fetches (w+7) x (h+7) reference pixels for a w x h block — the
	// paper's "11x11 pixels for a 4x4 sub-block".
	tmpH := h + mcApron
	// Block dimensions are at most MBSize, so the intermediate fits the
	// fixed buffer; larger callers (none today) fall back to the heap.
	if tmpArr == nil {
		tmpArr = new(mcTemp)
	}
	var tmp []int32
	if w*tmpH > len(tmpArr) {
		tmp = make([]int32, w*tmpH)
	} else {
		tmp = tmpArr[:w*tmpH]
	}
	// Intermediate row y filters reference row top+y, columns srcX-3 ..
	// srcX+w+3.
	top := srcY - mcApron/2 - 1
	if srcX >= 3 && srcX <= ref.W-w-4 && top >= 0 && top <= ref.H-tmpH {
		// Phase 0's vertical filter reads only rows 3 .. h+2.
		skip, rows := 0, tmpH
		if fracY == 0 {
			skip, rows = 3, h
		}
		filterRowsInterior(tmp[skip*w:], w, rows, ref, srcX-3, top+skip, fracX)
	} else {
		fx := subPelFilters[fracX]
		for y := 0; y < tmpH; y++ {
			ry := top + y
			for x := 0; x < w; x++ {
				var acc int32
				for t := 0; t < 8; t++ {
					acc += fx[t] * int32(ref.YAt(srcX+x+t-3, ry))
				}
				tmp[y*w+x] = acc
			}
		}
	}
	st.RefPixelsRead += uint64((w + mcApron) * tmpH)
	st.FilterTapMults += uint64(w * tmpH * 8)

	filterColumns(dst, stride, tmp, w, h, fracY)
	st.FilterTapMults += uint64(w * h * 8)
}

// filterRowsInterior is the horizontal pass for a window that lies inside
// the frame: intermediate row y is the 8-tap filter of reference row top+y
// starting at column x0 (the leftmost tap of output column 0). Phase 0's
// filter is the single tap 128 at index 3, so it reduces to 128*p[3].
func filterRowsInterior(tmp []int32, w, rows int, ref *video.Frame, x0, top, frac int) {
	if frac == 0 {
		for y := 0; y < rows; y++ {
			start := (top+y)*ref.W + x0 + 3
			src := ref.Y[start : start+w]
			out := tmp[y*w : y*w+w]
			for x, p := range src {
				out[x] = 128 * int32(p)
			}
		}
		return
	}
	f := &subPelFilters[frac]
	f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
	for y := 0; y < rows; y++ {
		start := (top+y)*ref.W + x0
		src := ref.Y[start : start+w+mcApron]
		out := tmp[y*w : y*w+w]
		for x := range out {
			p := src[x : x+8 : x+8]
			out[x] = f0*int32(p[0]) + f1*int32(p[1]) + f2*int32(p[2]) + f3*int32(p[3]) +
				f4*int32(p[4]) + f5*int32(p[5]) + f6*int32(p[6]) + f7*int32(p[7])
		}
	}
}

// filterColumns is the vertical pass: output row y filters intermediate
// rows y..y+7 and divides by 128*128 with rounding (two filter passes).
// Phase 0 reduces to 128 times row y+3.
func filterColumns(dst []uint8, stride int, tmp []int32, w, h, frac int) {
	if frac == 0 {
		for y := 0; y < h; y++ {
			t3 := tmp[(y+3)*w : (y+3)*w+w]
			out := dst[y*stride : y*stride+w]
			for x, v := range t3 {
				out[x] = clampPel((128*v + 8192) >> 14)
			}
		}
		return
	}
	f := &subPelFilters[frac]
	f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
	for y := 0; y < h; y++ {
		out := dst[y*stride : y*stride+w]
		t0 := tmp[y*w:][:len(out)]
		t1 := tmp[(y+1)*w:][:len(out)]
		t2 := tmp[(y+2)*w:][:len(out)]
		t3 := tmp[(y+3)*w:][:len(out)]
		t4 := tmp[(y+4)*w:][:len(out)]
		t5 := tmp[(y+5)*w:][:len(out)]
		t6 := tmp[(y+6)*w:][:len(out)]
		t7 := tmp[(y+7)*w:][:len(out)]
		for x := range out {
			acc := f0*t0[x] + f1*t1[x] + f2*t2[x] + f3*t3[x] +
				f4*t4[x] + f5*t5[x] + f6*t6[x] + f7*t7[x]
			out[x] = clampPel((acc + 8192) >> 14)
		}
	}
}

func floorDiv(v, d int) (q, r int) {
	q = v / d
	r = v % d
	if r < 0 {
		q--
		r += d
	}
	return q, r
}

func clampPel(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
