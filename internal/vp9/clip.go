package vp9

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
	"gopim/internal/video"
)

// CodecVersion identifies the encoder's output for a given ClipSpec: the
// synthetic source, mode decisions, motion search, quantization and
// bitstream. It is part of every ClipSpec key, and through those keys of
// every video kernel's trace-cache and trace-store key, so bump it with any
// change that alters a coded clip. TestCodeClipPinned and the evaluation
// clip's pinned fingerprint in package gopim fail on such a change.
const CodecVersion = 1

// CodedClip bundles a synthetic clip with its real encode artifacts.
type CodedClip struct {
	Cfg       Config
	Frames    []*video.Frame
	Recons    []*video.Frame
	Streams   [][]byte
	Decisions [][]Decision // per frame, raster macro-block order
	EncStats  Stats
}

// Fingerprint returns a string identifying the clip's content: its
// configuration, frame count, and a hash of the coded bitstreams (which pin
// down the frames and decisions that produced them). Tests pin it to catch
// codec changes that must bump CodecVersion.
func (c *CodedClip) Fingerprint() string {
	h := fnv.New64a()
	for _, s := range c.Streams {
		h.Write(s)
	}
	return fmt.Sprintf("%dx%d q%d f%d h%016x",
		c.Cfg.Width, c.Cfg.Height, c.Cfg.QIndex, len(c.Frames), h.Sum64())
}

// CodeClip encodes nFrames of synthetic w x h video and collects the
// decisions the instrumented kernels replay.
func CodeClip(w, h, nFrames, qIndex int, seed uint32) (*CodedClip, error) {
	cfg := Config{Width: w, Height: h, QIndex: qIndex}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	clip := &CodedClip{Cfg: cfg.withDefaults()}
	var current []Decision
	enc.OnMB = func(mbx, mby int, d Decision) { current = append(current, d) }
	synth := video.NewSynth(w, h, 4, seed)
	for i := 0; i < nFrames; i++ {
		src := synth.Frame(i)
		current = nil
		data, recon, err := enc.Encode(src)
		if err != nil {
			return nil, err
		}
		clip.Frames = append(clip.Frames, src)
		clip.Recons = append(clip.Recons, recon)
		clip.Streams = append(clip.Streams, data)
		clip.Decisions = append(clip.Decisions, append([]Decision(nil), current...))
	}
	clip.EncStats = enc.Stats
	return clip, nil
}

// refFor returns the reference frame the decoder would use for frame n,
// reference slot ri (recons are post-deblock, most recent first).
func (c *CodedClip) refFor(n, ri int) *video.Frame {
	idx := n - 1 - ri
	if idx < 0 {
		idx = 0
	}
	return c.Recons[idx]
}

// ClipSpec names a synthetic clip by the parameters CodeClip encodes it
// from. The video kernels are built from a spec rather than from a coded
// clip: their cache keys come from Key, and their bodies call Coded only
// when they actually run, so a process whose traces all come from a store
// never encodes.
type ClipSpec struct {
	W, H, Frames, QIndex int
	Seed                 uint32
}

// Key identifies the clip CodeClip produces for s under this CodecVersion.
func (s ClipSpec) Key() string {
	return fmt.Sprintf("%dx%d q%d f%d s%d codec%d", s.W, s.H, s.QIndex, s.Frames, s.Seed, CodecVersion)
}

// clipCell is one spec's single-flight encode.
type clipCell struct {
	once sync.Once
	clip *CodedClip
	err  error
}

// clips holds every spec's cell for the life of the process.
var clips sync.Map // ClipSpec -> *clipCell

// obsReg is the registry encodes are reported to (nil: no accounting).
// Package-level for the same reason as par's: Coded runs inside kernel
// bodies, which carry no registry.
var obsReg atomic.Pointer[obs.Registry]

// SetObs directs the clip-encode metrics — the phase.setup.clip span and
// the vp9.encodes counter — at r; nil turns accounting off.
func SetObs(r *obs.Registry) { obsReg.Store(r) }

// Coded returns the clip s names, encoding it on the first call for s in
// this process; concurrent callers wait for that one encode. It panics if
// s is not a valid encoder configuration.
func (s ClipSpec) Coded() *CodedClip {
	v, _ := clips.LoadOrStore(s, new(clipCell))
	c := v.(*clipCell)
	c.once.Do(func() {
		reg := obsReg.Load()
		sp := reg.Span("phase.setup.clip")
		c.clip, c.err = CodeClip(s.W, s.H, s.Frames, s.QIndex, s.Seed)
		sp.End()
		reg.Counter("vp9.encodes").Add(1)
	})
	if c.clip == nil {
		panic(fmt.Sprintf("vp9: coding clip %s: %v", s.Key(), c.err))
	}
	return c.clip
}
