package vp9

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gopim/internal/obs"
)

var codedRuns atomic.Uint32

// TestClipSpecCoded checks that Coded encodes exactly what CodeClip does,
// once per spec however many callers race for it, and reports that one
// encode.
func TestClipSpecCoded(t *testing.T) {
	reg := obs.NewRegistry()
	SetObs(reg)
	defer SetObs(nil)
	// A seed no earlier run in this process used, so -count=N encodes anew.
	spec := ClipSpec{W: 64, H: 48, Frames: 2, QIndex: 40, Seed: 1000 + codedRuns.Add(1)}
	got := make([]*CodedClip, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = spec.Coded()
		}()
	}
	wg.Wait()
	for _, c := range got[1:] {
		if c != got[0] {
			t.Fatal("Coded returned different clips for one spec")
		}
	}
	want, err := CodeClip(spec.W, spec.H, spec.Frames, spec.QIndex, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Fingerprint() != want.Fingerprint() {
		t.Errorf("Coded fingerprint %q, CodeClip %q", got[0].Fingerprint(), want.Fingerprint())
	}
	snap := reg.Snapshot()
	if n := snap.Counters["vp9.encodes"]; n != 1 {
		t.Errorf("vp9.encodes = %d, want 1", n)
	}
	if h := snap.Histograms["phase.setup.clip"]; h.Count != 1 {
		t.Errorf("phase.setup.clip spans = %d, want 1", h.Count)
	}
}

// TestClipSpecKey checks that every spec field and the codec version reach
// the key.
func TestClipSpecKey(t *testing.T) {
	base := ClipSpec{W: 64, H: 48, Frames: 2, QIndex: 40, Seed: 11}
	seen := map[string]bool{base.Key(): true}
	for _, s := range []ClipSpec{
		{W: 80, H: 48, Frames: 2, QIndex: 40, Seed: 11},
		{W: 64, H: 64, Frames: 2, QIndex: 40, Seed: 11},
		{W: 64, H: 48, Frames: 3, QIndex: 40, Seed: 11},
		{W: 64, H: 48, Frames: 2, QIndex: 41, Seed: 11},
		{W: 64, H: 48, Frames: 2, QIndex: 40, Seed: 12},
	} {
		if seen[s.Key()] {
			t.Errorf("spec %+v shares key %q", s, s.Key())
		}
		seen[s.Key()] = true
	}
	if !strings.HasSuffix(base.Key(), fmt.Sprintf(" codec%d", CodecVersion)) {
		t.Errorf("key %q does not end in the codec version %d", base.Key(), CodecVersion)
	}
}

// TestClipSpecCodedPanicsOnBadSpec checks that an invalid spec panics with
// the encoder's error, on every call.
func TestClipSpecCodedPanicsOnBadSpec(t *testing.T) {
	spec := ClipSpec{W: 50, H: 48, Frames: 1, QIndex: 40, Seed: 1}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				r, _ := recover().(string)
				if !strings.Contains(r, "multiples of 16") {
					t.Errorf("call %d: recovered %q, want the encoder's size error", i, r)
				}
			}()
			spec.Coded()
		}()
	}
}
