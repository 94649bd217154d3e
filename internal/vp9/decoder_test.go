package vp9

import (
	"testing"

	"gopim/internal/video"
)

// FuzzDecode feeds arbitrary bytes to a Decoder as the frame after a valid
// keyframe, then once more on top of whatever that left behind. Decoding
// may fail but must not panic; hostile streams carry arbitrary motion
// vectors, so this drives PredictLuma with blocks far outside the frame.
func FuzzDecode(f *testing.F) {
	cfg := Config{Width: 64, Height: 48, QIndex: 28}
	enc, err := NewEncoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var streams [][]byte
	for _, frame := range video.NewSynth(cfg.Width, cfg.Height, 4, 9).Clip(3) {
		data, _, err := enc.Encode(frame)
		if err != nil {
			f.Fatal(err)
		}
		streams = append(streams, data)
	}
	for _, s := range streams {
		f.Add(s)
	}
	key := streams[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(key); err != nil {
			t.Fatalf("valid keyframe: %v", err)
		}
		// Corrupt input may fail to decode; it must not panic.
		_, _ = dec.Decode(data)
		_, _ = dec.Decode(data)
	})
}
