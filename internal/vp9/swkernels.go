package vp9

import (
	"fmt"

	"gopim/internal/profile"
)

// Software decoder/encoder composite kernels: the full pipelines of
// Figures 9 and 14, replayed from a real encode with per-function phase
// attribution matching the paper's Figure 10/11 and Figure 15 breakdowns.

// Decoder phase labels (Figure 10).
const (
	PhaseSubPel  = "MC: Sub-Pixel Interpolation"
	PhaseOtherMC = "Other MC Functions"
	PhaseDeblock = "Deblocking Filter"
	PhaseEntropy = "Entropy Decoder"
	PhaseInvXfrm = "Inverse Transform"
	PhaseOther   = "Other"
)

// DecoderPhases lists Figure 10's categories in presentation order.
var DecoderPhases = []string{PhaseSubPel, PhaseOtherMC, PhaseDeblock, PhaseEntropy, PhaseInvXfrm, PhaseOther}

// Encoder phase labels (Figure 15).
const (
	PhaseME        = "Motion Estimation"
	PhaseIntraPred = "Intra-Prediction"
	PhaseTransform = "Transform"
	PhaseQuant     = "Quantization"
)

// EncoderPhases lists Figure 15's categories in presentation order.
var EncoderPhases = []string{PhaseME, PhaseIntraPred, PhaseTransform, PhaseQuant, PhaseDeblock, PhaseOther}

// DecodeKernel returns the instrumented software decoder: entropy decode,
// inverse transform, motion compensation (sub-pel and whole-pel), intra
// prediction, reconstruction, and the in-loop deblocking filter, replayed
// from the clip's real coding decisions.
func DecodeKernel(spec ClipSpec) profile.Kernel {
	return profile.KernelFunc{
		KernelName: fmt.Sprintf("VP9 software decode %dx%d", spec.W, spec.H),
		Key:        "vp9-decode " + spec.Key(),
		Fn: func(ctx *profile.Ctx) {
			clip := spec.Coded()
			mbCols := clip.Cfg.Width / MBSize
			pred := ctx.Alloc("prediction", MBSize*MBSize)
			for n := 0; n < len(clip.Frames); n++ {
				bits := ctx.Alloc(fmt.Sprintf("bitstream%d", n), len(clip.Streams[n]))
				copy(bits.Data, clip.Streams[n])
				recon := allocFrame(ctx, fmt.Sprintf("recon%d", n), clip.Recons[n])
				var refs [3]frameBuffers
				if n > 0 {
					for ri := 0; ri < 3; ri++ {
						refs[ri] = allocFrame(ctx, fmt.Sprintf("ref%d-%d", n, ri), clip.refFor(n, ri))
					}
				}

				// Entropy decoding streams the compressed bits; its working
				// set (probability tables, coder state) is cache-resident.
				ctx.SetPhase(PhaseEntropy)
				ctx.LoadV(bits, 0, len(bits.Data))
				ctx.Ops(len(bits.Data) * 8 * 2) // ~2 ops per bool decoded

				for i, d := range clip.Decisions[n] {
					bx, by := (i%mbCols)*MBSize, (i/mbCols)*MBSize
					// Prediction, residual combine, and the write of the
					// reconstructed block all belong to the block's
					// prediction path (Figure 9's MC output feeds the "+"
					// node directly).
					switch {
					case d.Inter:
						traceInterMB(ctx, refs[d.Ref], pred, bx, by, d, PhaseSubPel, PhaseOtherMC)
					default:
						// Intra prediction reads reconstructed neighbors.
						ctx.SetPhase(PhaseOther)
						ctx.Load(recon.y, clampInt((by-1)*recon.w+bx, 0, recon.h*recon.w-MBSize), MBSize)
						ctx.StoreV(pred, 0, MBSize*MBSize)
						ctx.SIMD(MBSize * MBSize / 4)
					}
					ctx.StoreSpanV(recon.y, by*recon.w+bx, MBSize, MBSize, recon.w)
					ctx.SIMD(MBSize * MBSize / 4) // residual add + clamp

					// Inverse transform: 16 luma + 8 chroma 4x4 blocks per
					// macro-block, all on a cache-resident scratch buffer
					// (the coefficients just came out of the entropy
					// decoder).
					// Most blocks are EOB-empty at this quantizer and skip
					// their inverse transform; ~30% carry coefficients.
					ctx.SetPhase(PhaseInvXfrm)
					ctx.Refs(24 * 8 * 3 / 10)
					ctx.SIMD(24 * 16 * 3 / 10)
					ctx.Ops(24 * 8 * 3 / 10)

				}

				ctx.SetPhase(PhaseDeblock)
				traceDeblockPlane(ctx, recon.y, recon.w, recon.h)
				traceDeblockPlane(ctx, recon.u, recon.w/2, recon.h/2)
				traceDeblockPlane(ctx, recon.v, recon.w/2, recon.h/2)
			}
		},
	}
}

// EncodeKernel returns the instrumented software encoder: motion
// estimation, intra prediction, transform, quantization, reconstruction and
// deblocking, replayed from the clip's real coding decisions.
func EncodeKernel(spec ClipSpec) profile.Kernel {
	return profile.KernelFunc{
		KernelName: fmt.Sprintf("VP9 software encode %dx%d", spec.W, spec.H),
		Key:        "vp9-encode " + spec.Key(),
		Fn: func(ctx *profile.Ctx) {
			clip := spec.Coded()
			mbCols := clip.Cfg.Width / MBSize
			pred := ctx.Alloc("prediction", MBSize*MBSize)
			for n := 0; n < len(clip.Frames); n++ {
				cur := allocFrame(ctx, fmt.Sprintf("cur%d", n), clip.Frames[n])
				recon := allocFrame(ctx, fmt.Sprintf("recon%d", n), clip.Recons[n])
				var refs [3]frameBuffers
				if n > 0 {
					for ri := 0; ri < 3; ri++ {
						refs[ri] = allocFrame(ctx, fmt.Sprintf("ref%d-%d", n, ri), clip.refFor(n, ri))
					}
				}

				for i, d := range clip.Decisions[n] {
					bx, by := (i%mbCols)*MBSize, (i/mbCols)*MBSize

					// The encoder always reads the source block.
					ctx.SetPhase(PhaseOther)
					ctx.LoadSpanV(cur.y, by*cur.w+bx, MBSize, MBSize, cur.w)

					if n > 0 {
						ctx.SetPhase(PhaseME)
						traceMESearch(ctx, refs, bx, by)
					}

					ctx.SetPhase(PhaseIntraPred)
					// Four candidate modes, each predicting then comparing
					// against the source block.
					ctx.Load(recon.y, clampInt((by-1)*recon.w+bx, 0, recon.h*recon.w-MBSize), MBSize)
					ctx.SIMD(4 * 2 * MBSize * MBSize / 4)
					ctx.StoreV(pred, 0, MBSize*MBSize)

					// Residual transform: 24 4x4 blocks on resident scratch.
					ctx.SetPhase(PhaseTransform)
					ctx.Refs(24 * 8)
					ctx.SIMD(24 * 32) // row+column butterfly stages
					ctx.Ops(24 * 8)

					ctx.SetPhase(PhaseQuant)
					ctx.Refs(24 * 8)
					ctx.SIMD(24 * 20) // scale, round, clamp, zero-run scan

					// Reconstruction (in-loop decode) + entropy coding.
					ctx.SetPhase(PhaseOther)
					if d.Inter {
						traceFullPelMB(ctx, refs[d.Ref], pred, bx, by, d.MV)
					}
					ctx.StoreSpanV(recon.y, by*recon.w+bx, MBSize, MBSize, recon.w)
					ctx.Ops(len(clip.Streams[n]) * 8 * 2 / len(clip.Decisions[n]))
				}

				ctx.SetPhase(PhaseDeblock)
				traceDeblockPlane(ctx, recon.y, recon.w, recon.h)
				traceDeblockPlane(ctx, recon.u, recon.w/2, recon.h/2)
				traceDeblockPlane(ctx, recon.v, recon.w/2, recon.h/2)
			}
		},
	}
}

// traceMESearch traces a representative diamond search over three
// references for one macro-block: ~24 SAD candidates per reference, each
// reading a 16x16 window, plus sub-pel refinement probes.
func traceMESearch(ctx *profile.Ctx, refs [3]frameBuffers, bx, by int) {
	const sadsPerRef = 16
	for ri := 0; ri < 3; ri++ {
		ref := refs[ri]
		if ref.y == nil {
			continue
		}
		for s := 0; s < sadsPerRef; s++ {
			dy := (s%7 - 3) * 2
			dx := (s/7 - 1) * 3
			y := clampInt(by+dy, 0, ref.h-MBSize)
			x := clampInt(bx+dx, 0, ref.w-MBSize)
			// Every other row of the 16x16 SAD window.
			ctx.LoadSpanV(ref.y, y*ref.w+x, MBSize, MBSize/2, 2*ref.w)
			ctx.SIMD(MBSize * MBSize / 4)
			ctx.Ops(8)
		}
	}
	// Sub-pel refinement on the winning reference: ~8 interpolated probes.
	ctx.SIMD(8 * MBSize * MBSize * 8 / 4)
}
