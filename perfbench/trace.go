package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// hostNow reads the host clock. The benchmark measures host time, so
// this is the one place it reads the wall clock.
func hostNow() time.Time {
	return time.Now() //determlint:walltime the benchmark measures host seconds by design
}

// span is one timed region of the benchmark's own code: the workload,
// its setup and passes, and each public call into the program.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: hostNow()} }

// begin opens a span under parent (0 = root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := hostNow().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartUS: float64(now.Nanoseconds()) / 1e3})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := hostNow().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.EndUS = float64(now.Nanoseconds()) / 1e3
	return (sp.EndUS - sp.StartUS) / 1e6
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// modulePath prefixes every function of the program in a profile.
const modulePath = "github.com/ais-snu/localut"

// moduleOf names the program module a profiled function belongs to:
// the internal package, "localut" for the root package, "bench" for the
// benchmark's own code; ok is false outside the program.
func moduleOf(fn string) (mod string, ok bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, modulePath+"/perfbench.") {
		return "bench", true
	}
	if !strings.HasPrefix(fn, modulePath) {
		return "", false
	}
	rest := fn[len(modulePath):]
	switch {
	case strings.HasPrefix(rest, "."):
		return "localut", true
	case strings.HasPrefix(rest, "/internal/"):
		rest = rest[len("/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
	}
	return "", false
}

// gcFrames mark runtime garbage-collector work: background marking and
// sweeping, assists, and write barriers.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.greyobject", "runtime.sweepone", "runtime.wbBuf"}

func isGCFrame(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// selfSeconds charges each CPU sample of a runtime/pprof profile to one
// bucket and sums CPU seconds per bucket.
func selfSeconds(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		out[p.bucket(s)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// bucket names where a sample's CPU goes: "runtime.gc" when any frame is
// collector work, else the innermost frame's program module, else
// "other".
func (p *profData) bucket(s profSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			if isGCFrame(fn) {
				return "runtime.gc"
			}
		}
	}
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			if mod, ok := moduleOf(fn); ok {
				return mod
			}
		}
	}
	return "other"
}

// ---- minimal profile.proto decoder ----

type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
}

type profData struct {
	samples []profSample
	// locFuncs lists each location's function names, innermost inlined
	// frame first.
	locFuncs map[uint64][]string
}

var errTruncated = errors.New("truncated profile")

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for i := 0; i < 10; i++ {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("bad varint in profile")
}

// field reads the next field: its number, wire type, and either a varint
// value or a length-delimited payload.
func (r *pbReader) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d in profile", wire)
	}
	return num, wire, v, data, err
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes the samples, locations and function names of a
// gzipped CPU profile; the last sample value is CPU nanoseconds.
func parseProfile(gz []byte) (*profData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locLines := map[uint64][]uint64{} // location id -> function ids
	var samples []profSample
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			sr := pbReader{data}
			for len(sr.b) > 0 {
				n, w, v, d, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, w, v, d)
				case 2:
					vals, err = repeated(vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := pbReader{data}
			for len(lr.b) > 0 {
				n, _, v, d, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					lnr := pbReader{d}
					for len(lnr.b) > 0 {
						ln, _, lv, _, err := lnr.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			fr := pbReader{data}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	}
	p := &profData{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for loc, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if idx := funcName[f]; idx < uint64(len(strs)) {
				names = append(names, strs[idx])
			}
		}
		p.locFuncs[loc] = names
	}
	return p, nil
}
