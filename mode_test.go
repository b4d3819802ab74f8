package localut

import (
	"reflect"
	"testing"
)

// TestWithCyclesOnlyMatchesFunctional pins the public-API guarantee: a
// system in cycles-only mode reports the same timing, cycle counts and
// energy as a functional one for every design, with only verification and
// outputs absent.
func TestWithCyclesOnlyMatchesFunctional(t *testing.T) {
	const m, k, n = 96, 128, 24
	for _, full := range []bool{false, true} {
		opts := []Option{WithSeed(3)}
		if full {
			opts = append(opts, WithFullBankSimulation())
		}
		fs := NewSystem(opts...)
		cs := NewSystem(append(opts, WithCyclesOnly())...)

		for _, d := range Designs {
			fr, err := fs.GEMM(W1A3, m, k, n, d)
			if err != nil {
				t.Fatalf("%v functional: %v", d, err)
			}
			cr, err := cs.GEMM(W1A3, m, k, n, d)
			if err != nil {
				t.Fatalf("%v cycles-only: %v", d, err)
			}
			if !fr.Verified {
				t.Errorf("%v: functional result not verified", d)
			}
			if cr.Verified {
				t.Errorf("%v: cycles-only result claims verification", d)
			}
			if fr.KernelCycles != cr.KernelCycles {
				t.Errorf("%v full=%v: cycles %d != %d", d, full, fr.KernelCycles, cr.KernelCycles)
			}
			if fr.TotalSeconds != cr.TotalSeconds || fr.KernelSeconds != cr.KernelSeconds ||
				fr.HostSeconds != cr.HostSeconds || fr.Transfer != cr.Transfer {
				t.Errorf("%v full=%v: timing diverges: %+v vs %+v", d, full, fr, cr)
			}
			if fr.EnergyJ != cr.EnergyJ {
				t.Errorf("%v full=%v: energy %g J != %g J", d, full, fr.EnergyJ, cr.EnergyJ)
			}
			if fr.P != cr.P || fr.SliceK != cr.SliceK || fr.Streaming != cr.Streaming ||
				fr.BanksSimulated != cr.BanksSimulated {
				t.Errorf("%v full=%v: plan diverges: %+v vs %+v", d, full, fr, cr)
			}
		}
	}
}

// TestCyclesOnlyInference checks end-to-end transformer inference under the
// cycles-only backend against the functional run.
func TestCyclesOnlyInference(t *testing.T) {
	fs := NewSystem()
	cs := NewSystem(WithCyclesOnly())
	opt := InferOptions{Batch: 1}
	fr, err := fs.Infer(BERTBase, W1A3, DesignLoCaLUT, opt)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cs.Infer(BERTBase, W1A3, DesignLoCaLUT, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fr.TotalSeconds != cr.TotalSeconds {
		t.Errorf("inference seconds diverge: %g vs %g", fr.TotalSeconds, cr.TotalSeconds)
	}
	if fr.EnergyJ != cr.EnergyJ {
		t.Errorf("inference energy diverges: %g vs %g", fr.EnergyJ, cr.EnergyJ)
	}
	if fr.Prefill != cr.Prefill {
		t.Errorf("prefill phases diverge: %+v vs %+v", fr.Prefill, cr.Prefill)
	}
}

// TestCyclesOnlyBatchAndFullOutput extends the cost-equality guarantee to
// GEMMBatch, and checks that WithFullOutput on a cycles-only system still
// computes the same product as the functional run.
func TestCyclesOnlyBatchAndFullOutput(t *testing.T) {
	fs := NewSystem(WithSeed(5))
	cs := NewSystem(WithSeed(5), WithCyclesOnly())
	shapes := []GEMMShape{{M: 64, K: 96, N: 16}, {M: 33, K: 70, N: 9}}
	fb, err := fs.GEMMBatch(W2A2, shapes, DesignLoCaLUT)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cs.GEMMBatch(W2A2, shapes, DesignLoCaLUT)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shapes {
		f, c := *fb[i], *cb[i]
		f.Verified = false
		if !reflect.DeepEqual(f, c) {
			t.Errorf("batch member %d diverges across modes:\n functional  %+v\n cycles-only %+v", i, f, c)
		}
	}

	fr, err := fs.GEMM(W1A3, 40, 64, 12, DesignOP, WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cs.GEMM(W1A3, 40, 64, 12, DesignOP, WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	if cr.Output == nil || !reflect.DeepEqual(fr.Output, cr.Output) {
		t.Errorf("cycles-only full output differs from the functional product")
	}
	if fr.KernelCycles != cr.KernelCycles || fr.TotalSeconds != cr.TotalSeconds {
		t.Errorf("full-output run diverges across modes: %+v vs %+v", fr, cr)
	}
}
