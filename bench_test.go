// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each iteration
// regenerates the figure's data from scratch and reports the figure's
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Benches run at Quick scale so the full
// sweep finishes on a laptop; run cmd/pimsim -scale standard for the
// larger working sets.
package gopim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gopim"
	"gopim/experiments"
	"gopim/internal/cache"
	"gopim/internal/dram"
	"gopim/internal/par"
)

var benchOpts = experiments.Options{Scale: gopim.Quick}

func BenchmarkFig1Scrolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(benchOpts)
		avg := rows[len(rows)-1]
		b.ReportMetric((avg.TextureTiling+avg.ColorBlitting)*100, "tiling+blit_%")
	}
}

func BenchmarkFig2DocsBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(benchOpts)
		b.ReportMetric(res.DataMovementFraction*100, "data_movement_%")
		b.ReportMetric(res.LLCMPKI, "MPKI")
	}
}

func BenchmarkFig4TabSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PeakOutMBs, "peak_out_MB/s")
		b.ReportMetric(res.TotalOutGB, "swapped_out_GB")
	}
}

func BenchmarkFig6TFEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(benchOpts)
		avg := rows[len(rows)-1]
		b.ReportMetric((avg.Packing+avg.Quantization)*100, "pack+quant_%")
	}
}

func BenchmarkFig7TFTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(benchOpts)
		avg := rows[len(rows)-1]
		b.ReportMetric((avg.Packing+avg.Quantization)*100, "pack+quant_time_%")
	}
}

func BenchmarkFig10SWDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr, err := experiments.Fig10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fr {
			if f.Name == "MC: Sub-Pixel Interpolation" {
				b.ReportMetric(f.Fraction*100, "subpel_%")
			}
		}
	}
}

func BenchmarkFig11SWDecodeComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DataMovementFraction*100, "data_movement_%")
	}
}

func BenchmarkFig12HWDecodeTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var hd, k4 float64
		for _, r := range rows {
			if r.Compressed {
				continue
			}
			if r.Resolution == "HD" {
				hd = r.TotalMB
			} else {
				k4 = r.TotalMB
			}
		}
		b.ReportMetric(k4/hd, "4K/HD_ratio")
	}
}

func BenchmarkFig15SWEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr, err := experiments.Fig15(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fr {
			if f.Name == "Motion Estimation" {
				b.ReportMetric(f.Fraction*100, "ME_%")
			}
		}
	}
}

func BenchmarkFig16HWEncodeTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Resolution == "HD" && !r.Compressed {
				var ref, total float64
				for _, it := range r.Items {
					total += it.Bytes
					if it.Name == "Reference Frame" {
						ref = it.Bytes
					}
				}
				b.ReportMetric(ref/total*100, "ref_share_%")
			}
		}
	}
}

func BenchmarkFig18BrowserKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig18(benchOpts)
		var acc float64
		n := 0.0
		for _, r := range rows {
			if r.Mode == gopim.PIMAcc {
				acc += r.EnergySavings
				n++
			}
		}
		b.ReportMetric(acc/n*100, "PIM-Acc_savings_%")
	}
}

func BenchmarkFig19TFKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, speedups := experiments.Fig19(benchOpts)
		for _, s := range speedups {
			if s.GEMMOps == 16 && s.Mode == gopim.PIMAcc {
				b.ReportMetric(s.Speedup, "16GEMM_PIM-Acc_x")
			}
		}
	}
}

func BenchmarkFig20VideoKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig20(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kernel == "Motion Estimation" && r.Mode == gopim.PIMAcc {
				b.ReportMetric(r.Speedup, "ME_PIM-Acc_x")
			}
		}
	}
}

func BenchmarkFig21HWEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig21(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var base, acc float64
		for _, r := range rows {
			if r.Codec == "decoder" && r.Compressed {
				switch int(r.Mode) {
				case 0:
					base = r.EnergyMJ
				case 2:
					acc = r.EnergyMJ
				}
			}
		}
		b.ReportMetric((1-acc/base)*100, "decoder_PIM-Acc_savings_%")
	}
}

func BenchmarkHeadlineAverages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Headline(benchOpts)
		b.ReportMetric(res.AvgDataMovementFraction*100, "data_movement_%")
		b.ReportMetric(res.AvgEnergyReduction[gopim.PIMAcc]*100, "PIM-Acc_savings_%")
		b.ReportMetric(res.AvgSpeedup[gopim.PIMAcc], "PIM-Acc_speedup_x")
	}
}

func BenchmarkPageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.PageLoad(benchOpts)
		for _, r := range rows {
			if r.Page == "Google Docs" {
				b.ReportMetric(r.GPUSlowdown, "docs_GPU_slowdown_x")
			}
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := experiments.AblationVaults(benchOpts)
		b.ReportMetric(v[4].Speedup, "16vault_speedup_x")
		c := experiments.AblationCoherence(benchOpts)
		b.ReportMetric(c[1].EnergyOverhead*100, "coherence_1pct_overhead_%")
	}
}

func BenchmarkBatteryLife(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BatteryLife(benchOpts)
		b.ReportMetric(rows[0].LifeExtension, "browsing_battery_x")
	}
}

func BenchmarkTargetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.TargetStats(benchOpts)
		var mpki float64
		for _, r := range rows {
			mpki += r.LLCMPKI / float64(len(rows))
		}
		b.ReportMetric(mpki, "avg_MPKI")
	}
}

// BenchmarkHierarchySpan tracks the per-access cost of the cache hierarchy
// on the span mixes the instrumented kernels produce: sequential sub-line
// spans (byte-wise kernels like LZO and blitting, where consecutive
// accesses stay within one 64 B line), strided row walks (texture tiling),
// and scattered line-sized touches (motion compensation).
func BenchmarkHierarchySpan(b *testing.B) {
	newHier := func() *cache.Hierarchy {
		l1 := cache.New(cache.Config{Name: "L1D", Size: 64 << 10, Ways: 4})
		l2 := cache.New(cache.Config{Name: "LLC", Size: 2 << 20, Ways: 8})
		return cache.NewHierarchy(l1, l2, dram.NewRowMeter())
	}
	const footprint = 8 << 20
	b.Run("sequential-subline", func(b *testing.B) {
		h := newHier()
		var addr uint64
		for i := 0; i < b.N; i++ {
			h.Load(addr%footprint, 4)
			addr += 4
		}
	})
	b.Run("strided-rows", func(b *testing.B) {
		h := newHier()
		const stride, rowB = 4096, 128
		var row uint64
		for i := 0; i < b.N; i++ {
			h.Load((row*stride+uint64(i%32)*rowB)%footprint, rowB)
			if i%32 == 31 {
				row++
			}
		}
	})
	b.Run("random-lines", func(b *testing.B) {
		h := newHier()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			h.Load(uint64(rng.Intn(footprint)), 64)
		}
	})
	// Whole-rectangle entry point vs. the per-row loop it replaces.
	b.Run("span-batched-rows", func(b *testing.B) {
		h := newHier()
		const stride, rowB, rows = 4096, 128, 32
		var base uint64
		for i := 0; i < b.N; i++ {
			h.LoadSpan(base%footprint, rowB, rows, stride)
			base += rows * stride
		}
	})
}

// BenchmarkParMap tracks the fixed overhead of the bounded worker pool on
// small CPU-bound units, per worker count. On multi-core hosts the >1
// worker cases show the fan-out win; on a single-core host every case now
// collapses to the inline serial path, because ForEach caps workers at
// GOMAXPROCS — before that cap, workers-8 trailed workers-1 here by pure
// goroutine-scheduling overhead, with no result difference to show for it.
// Its items take about 2 µs, far below any real caller's (milliseconds), so
// the counter handoff ForEach pays per item shows here as pure overhead.
func BenchmarkParMap(b *testing.B) {
	work := func(i int) uint64 {
		h := uint64(i) + 0x9e3779b97f4a7c15
		for j := 0; j < 1000; j++ {
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
		}
		return h
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par.Map(workers, 64, work)
			}
		})
	}
}
