package gopim_test

import (
	"testing"

	"gopim"
	"gopim/internal/obs"
	"gopim/internal/profile"
	"gopim/internal/vp9"
)

func TestTargetsCoverAllWorkloads(t *testing.T) {
	targets := gopim.Targets(gopim.Quick)
	if len(targets) != 9 {
		t.Fatalf("got %d targets, want 9 (paper §§4-7)", len(targets))
	}
	workloads := map[string]int{}
	names := map[string]bool{}
	for _, tgt := range targets {
		workloads[tgt.Workload]++
		if names[tgt.Name] {
			t.Errorf("duplicate target %q", tgt.Name)
		}
		names[tgt.Name] = true
		if tgt.Kernel == nil {
			t.Errorf("%s has no kernel", tgt.Name)
		}
		if tgt.AccArea <= 0 {
			t.Errorf("%s has no accelerator area", tgt.Name)
		}
		if frac, ok := gopim.AreaFeasible(tgt.AccArea); !ok || frac > 1 {
			t.Errorf("%s accelerator (%.2f mm²) not feasible", tgt.Name, tgt.AccArea)
		}
	}
	want := map[string]int{"Chrome": 4, "TensorFlow": 2, "Video Playback": 2, "Video Capture": 1}
	for wl, n := range want {
		if workloads[wl] != n {
			t.Errorf("%s has %d targets, want %d", wl, workloads[wl], n)
		}
	}
}

func TestEvalClipCached(t *testing.T) {
	a := gopim.EvalClip(gopim.Quick)
	b := gopim.EvalClip(gopim.Quick)
	if a != b {
		t.Error("EvalClip must cache the encoded clip per scale")
	}
	if len(a.Frames) == 0 || len(a.Streams) != len(a.Frames) {
		t.Error("clip incomplete")
	}
}

// TestEvalClipPinned pins the Quick evaluation clip's content. The video
// kernels' trace keys name the clip by its spec and vp9.CodecVersion, not
// by this hash, so a codec change that alters the clip without a version
// bump would let stale store entries replay as current.
func TestEvalClipPinned(t *testing.T) {
	const want = "1280x704 q28 f3 h80aeea0e8ec32b4e"
	if got := gopim.EvalClip(gopim.Quick).Fingerprint(); got != want {
		t.Errorf("evaluation clip fingerprint %q, want %q: the codec's output changed; "+
			"bump vp9.CodecVersion so stored video traces miss, then update this pin", got, want)
	}
}

// TestTargetsDoNoCodecWork pins the lazy video kernels: listing the targets
// encodes nothing (the Standard clip is never encoded in this package's
// tests, so that half holds whatever order the tests run in), and the
// video kernels are keyed by the evaluation clip's spec.
func TestTargetsDoNoCodecWork(t *testing.T) {
	reg := obs.NewRegistry()
	vp9.SetObs(reg)
	defer vp9.SetObs(nil)
	for _, s := range []gopim.Scale{gopim.Quick, gopim.Standard} {
		spec := gopim.EvalClipSpec(s)
		want := map[string]string{
			"Sub-Pixel Interpolation": "vp9-subpel " + spec.Key(),
			"Deblocking Filter":       "vp9-deblock " + spec.Key(),
			"Motion Estimation":       "vp9-me " + spec.Key(),
		}
		for _, tgt := range gopim.Targets(s) {
			if k, ok := want[tgt.Name]; ok {
				if got := profile.KeyOf(tgt.Kernel); got != k {
					t.Errorf("scale %d: %s key %q, want %q", s, tgt.Name, got, k)
				}
				delete(want, tgt.Name)
			}
		}
		if len(want) != 0 {
			t.Errorf("scale %d: video targets missing: %v", s, want)
		}
	}
	if n := reg.Counter("vp9.encodes").Value(); n != 0 {
		t.Errorf("Targets encoded %d clips, want 0", n)
	}
}

func TestRunKernelPublicAPI(t *testing.T) {
	k := gopim.KernelFunc{
		KernelName: "smoke",
		Fn: func(ctx *gopim.Ctx) {
			buf := ctx.Alloc("buf", 1<<20)
			ctx.SetPhase("stream")
			for off := 0; off < buf.Len(); off += 4096 {
				ctx.LoadV(buf, off, 4096)
			}
			ctx.Ops(1000)
		},
	}
	prof, phases := gopim.RunKernel(gopim.SoC(), k)
	if prof.Instructions() == 0 {
		t.Fatal("no instructions recorded through the public API")
	}
	if _, ok := phases["stream"]; !ok {
		t.Fatal("phase missing")
	}
	// The same kernel on PIM hardware sees no LLC.
	pimProf, _ := gopim.RunKernel(gopim.PIMCoreHW(), k)
	if pimProf.LLC.Accesses != 0 {
		t.Error("PIM hardware should have no LLC")
	}
}

func TestEvaluatePublicAPI(t *testing.T) {
	k := gopim.KernelFunc{
		KernelName: "streaming copy",
		Fn: func(ctx *gopim.Ctx) {
			src := ctx.Alloc("src", 8<<20)
			dst := ctx.Alloc("dst", 8<<20)
			for off := 0; off < src.Len(); off += 4096 {
				ctx.LoadV(src, off, 4096)
				ctx.StoreV(dst, off, 4096)
			}
		},
	}
	res := gopim.Evaluate(gopim.Target{Name: "copy", Workload: "demo", Kernel: k, AccArea: 0.1})
	if len(res.ByMode) != 3 {
		t.Fatalf("got %d modes", len(res.ByMode))
	}
	// A pure streaming copy is the ideal PIM case: both PIM modes must win
	// on energy and time.
	for _, mode := range []gopim.Mode{gopim.PIMCore, gopim.PIMAcc} {
		if res.EnergyReduction(mode) <= 0 {
			t.Errorf("%s: no energy win on a pure copy", mode)
		}
		if res.Speedup(mode) <= 1 {
			t.Errorf("%s: no speedup on a pure copy", mode)
		}
	}
}

func TestDefaultEnergyParams(t *testing.T) {
	p := gopim.DefaultEnergyParams()
	if p.CPUInstr <= 0 || p.DRAMByte <= 0 {
		t.Error("default parameters incomplete")
	}
}
