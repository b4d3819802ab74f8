package banksim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refBank replays the per-burst reference semantics (one access per burst)
// against which the row-grouped stream fast path must stay bit-identical.
type refBank struct{ b *Bank }

func (r refBank) read(addr, n int64) {
	for off := int64(0); off < n; off += r.b.T.BurstBytes {
		r.b.access(addr + off)
		r.b.Reads++
	}
}

func (r refBank) write(addr, n int64) {
	for off := int64(0); off < n; off += r.b.T.BurstBytes {
		r.b.access(addr + off)
		r.b.Writes++
	}
}

// TestStreamMatchesPerBurstReference drives fast and reference banks with
// identical random access sequences — unaligned addresses, row-crossing
// spans, interleaved reads and writes — and requires identical cycles and
// counters throughout.
func TestStreamMatchesPerBurstReference(t *testing.T) {
	for _, tm := range []Timing{HBM2(), DDR4()} {
		rng := rand.New(rand.NewSource(42))
		fast := NewBank(tm)
		ref := refBank{b: NewBank(tm)}
		for i := 0; i < 2000; i++ {
			addr := rng.Int63n(1 << 20)
			n := 1 + rng.Int63n(4*tm.RowBytes)
			if rng.Intn(2) == 0 {
				fast.Read(addr, n)
				ref.read(addr, n)
			} else {
				fast.Write(addr, n)
				ref.write(addr, n)
			}
			if fast.Cycles != ref.b.Cycles || fast.Reads != ref.b.Reads ||
				fast.Writes != ref.b.Writes || fast.Activates != ref.b.Activates ||
				fast.RowHits != ref.b.RowHits || fast.openRow != ref.b.openRow {
				t.Fatalf("step %d (addr=%d n=%d): fast %+v != ref %+v", i, addr, n, *fast, *ref.b)
			}
		}
	}
}

// TestStreamZeroLength checks the degenerate transfer is a no-op.
func TestStreamZeroLength(t *testing.T) {
	b := NewBank(HBM2())
	b.Read(128, 0)
	b.Write(128, 0)
	if b.Cycles != 0 || b.Reads != 0 || b.Writes != 0 {
		t.Fatalf("zero-length transfer charged: %+v", *b)
	}
}

// TestReadRunMatchesPerCallReads drives readRun against count per-call
// Reads replayed burst by burst, from every starting row state: precharged,
// the first burst's row already open, and another row (below or above)
// open. Chunk sizes straddle BurstBytes and RowBytes and start addresses
// are unaligned.
func TestReadRunMatchesPerCallReads(t *testing.T) {
	for _, tm := range []Timing{HBM2(), DDR4()} {
		rng := rand.New(rand.NewSource(7))
		sizes := []int64{1, tm.BurstBytes - 1, tm.BurstBytes, tm.BurstBytes + 1,
			3*tm.BurstBytes - 5, tm.RowBytes - 1, tm.RowBytes, tm.RowBytes + 1,
			2*tm.RowBytes + tm.BurstBytes/2}
		for i := 0; i < 20000; i++ {
			addr := rng.Int63n(64 * tm.RowBytes)
			var n int64
			if i%2 == 0 {
				n = sizes[rng.Intn(len(sizes))]
			} else {
				n = 1 + rng.Int63n(3*tm.RowBytes)
			}
			count := 1 + rng.Int63n(40)
			fast, ref := NewBank(tm), refBank{b: NewBank(tm)}
			state := i % 4
			switch state {
			case 1: // the first burst's row is open
				fast.access(addr)
				ref.b.access(addr)
			case 2: // a lower row is open
				if row := addr/tm.RowBytes - 1; row >= 0 {
					fast.access(row * tm.RowBytes)
					ref.b.access(row * tm.RowBytes)
				}
			case 3: // a higher row is open
				fast.access(addr + 5*tm.RowBytes)
				ref.b.access(addr + 5*tm.RowBytes)
			}
			fast.readRun(addr, n, count)
			for c := int64(0); c < count; c++ {
				ref.read(addr+c*n, n)
			}
			if *fast != *ref.b {
				t.Fatalf("%+v state %d addr=%d n=%d count=%d: run %+v != per-call %+v",
					tm, state, addr, n, count, *fast, *ref.b)
			}
		}
	}
}

// refSIMDGEMM is SIMDPIM.RunGEMMOn with one Read call per weight row,
// replayed burst by burst.
func refSIMDGEMM(s *SIMDPIM, g GEMMSpec) (*Result, Bank) {
	r := refBank{b: NewBank(s.T)}
	const elemBytes = 2
	aBase := int64(g.M) * int64(g.K) * elemBytes
	oBase := aBase + int64(g.K)*int64(g.N)*elemBytes
	for n := 0; n < g.N; n++ {
		r.read(aBase+int64(n)*int64(g.K)*elemBytes, int64(g.K)*elemBytes)
		for m := 0; m < g.M; m++ {
			r.read(int64(m)*int64(g.K)*elemBytes, int64(g.K)*elemBytes)
			if n%int(s.T.BurstBytes/elemBytes) == 0 {
				r.write(oBase+int64(m)*elemBytes, elemBytes)
			}
		}
	}
	return result(r.b, int64(g.M)*int64(g.K)*int64(g.N)), *r.b
}

// refLUTGEMM is LUTPIM.RunGEMMOn with one Read call per weight row,
// replayed burst by burst.
func refLUTGEMM(u *LUTPIM, g GEMMSpec) (*Result, Bank) {
	r := refBank{b: NewBank(u.T)}
	groups := (g.K + u.P - 1) / u.P
	lutBase := int64(groups) * int64(g.M) * int64(u.WeightRowBytes)
	lutRegion := int64(32 << 20)
	reorderBase := lutBase + lutRegion
	reorderRegion := int64(16 << 20)
	oBase := reorderBase + reorderRegion
	var macs, computeCycles int64
	for n := 0; n < g.N; n++ {
		for g0 := 0; g0 < groups; g0 += u.Units {
			batch := u.Units
			if g0+batch > groups {
				batch = groups - g0
			}
			for j := 0; j < batch; j++ {
				h := int64(n*groups+g0+j) * 2654435761
				r.read(lutBase+h%(lutRegion-u.CanonColBytes), u.CanonColBytes)
				r.read(reorderBase+(h>>7)%(reorderRegion-u.ReorderColBytes), u.ReorderColBytes)
			}
			r.read(oBase+int64(g.M)*2+int64(n*groups+g0)*4, int64(batch)*4)
			for m := 0; m < g.M; m++ {
				r.read(int64((g0/u.Units)*g.M+m)*int64(batch*u.WeightRowBytes),
					int64(batch*u.WeightRowBytes))
				macs += int64(batch) * int64(u.P)
				computeCycles += int64(float64(1) / u.LookupsPerCycle)
			}
		}
		r.write(oBase+int64(n)*int64(g.M)*2, int64(g.M)*2)
	}
	if computeCycles > r.b.Cycles {
		r.b.Cycles = computeCycles
	}
	return result(r.b, macs), *r.b
}

// unitSpecs is the share grid the unit simulators are pinned on: odd
// shapes, partial last unit batches (groups % Units != 0 for most p),
// enough columns to cover both SIMD writeback phases, and the ragged shares
// SplitGEMM produces.
func unitSpecs(t *testing.T) []GEMMSpec {
	specs := []GEMMSpec{
		{M: 1, K: 1, N: 1}, {M: 7, K: 33, N: 5}, {M: 13, K: 129, N: 3},
		{M: 9, K: 45, N: 35}, {M: 64, K: 300, N: 19}, {M: 3, K: 517, N: 17},
	}
	split, err := SplitGEMM(37, 41, 53, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return append(specs, split...)
}

// TestUnitsMatchPerCallReference pins both unit simulators' closed-form
// weight streams against per-call reference loops: the full Result and
// the final Bank state must match for p = 1..8 on every share, with the
// command stream (default lookup rate) or the unit lookups (a slow unit)
// setting the cycle count.
func TestUnitsMatchPerCallReference(t *testing.T) {
	for _, tm := range []Timing{HBM2(), DDR4()} {
		for _, g := range unitSpecs(t) {
			s := NewSIMDPIM(tm)
			var b Bank
			got, err := s.RunGEMMOn(&b, g)
			if err != nil {
				t.Fatal(err)
			}
			want, wantBank := refSIMDGEMM(s, g)
			if !reflect.DeepEqual(got, want) || b != wantBank {
				t.Errorf("SIMD %+v %+v:\n got  %+v %+v\n want %+v %+v", tm, g, *got, b, *want, wantBank)
			}
			for p := 1; p <= 8; p++ {
				for _, w := range []struct {
					rb, entry int
					lookups   float64
				}{{(p + 7) / 8, 2, 0.5}, {(4*p + 7) / 8, 1, 0.5}, {(p + 7) / 8, 2, 1.0 / 256}} {
					name := fmt.Sprintf("LUT p=%d rb=%d lookups=%g %+v %+v", p, w.rb, w.lookups, tm, g)
					u, err := NewLUTPIM(tm, p, w.rb, w.entry)
					if err != nil {
						t.Fatal(err)
					}
					u.LookupsPerCycle = w.lookups
					canon := int64(1) << uint(p) * int64(w.entry)
					if canon > int64(u.UnitBytes) {
						canon = int64(u.UnitBytes)
					}
					if err := u.ConfigureSlices(canon, int64(1)<<uint(p)*int64(w.rb)); err != nil {
						t.Fatal(err)
					}
					var b Bank
					got, err := u.RunGEMMOn(&b, g)
					if err != nil {
						t.Fatal(err)
					}
					want, wantBank := refLUTGEMM(u, g)
					if !reflect.DeepEqual(got, want) || b != wantBank {
						t.Errorf("%s:\n got  %+v %+v\n want %+v %+v", name, *got, b, *want, wantBank)
					}
				}
			}
		}
	}
}
