package localut

import (
	"io"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestNonFiniteConfigRejected sets every float knob of the serving and
// cluster configs to NaN and ±Inf in turn. Range checks alone let NaN
// through (NaN <= 0 is false), so each must fail validation as
// non-finite instead of simulating nonsense. The public config
// sub-structs alias the internal ones, so this covers both APIs.
func TestNonFiniteConfigRejected(t *testing.T) {
	cluster := []struct {
		field string
		set   func(c *ClusterConfig, v float64)
	}{
		{"RatePerSec", func(c *ClusterConfig, v float64) { c.RatePerSec = v }},
		{"DurationSeconds", func(c *ClusterConfig, v float64) { c.DurationSeconds = v }},
		{"MeanTokens", func(c *ClusterConfig, v float64) { c.MeanTokens = v }},
		{"OutTokensMean", func(c *ClusterConfig, v float64) { c.OutTokensMean = v }},
		{"Deadlines.DefaultSeconds", func(c *ClusterConfig, v float64) { c.Deadlines.DefaultSeconds = v }},
		{"Class.RatePerSec", func(c *ClusterConfig, v float64) { c.Classes = []ClusterClass{{RatePerSec: v}} }},
		{"Class.AdmitRatePerSec", classField(func(cc *ClusterClass, v float64) { cc.AdmitRatePerSec = v })},
		{"Class.AdmitBurst", classField(func(cc *ClusterClass, v float64) { cc.AdmitBurst = v })},
		{"Class.MeanTokens", classField(func(cc *ClusterClass, v float64) { cc.MeanTokens = v })},
		{"Class.OutTokensMean", classField(func(cc *ClusterClass, v float64) { cc.OutTokensMean = v })},
		{"Class.TTFTp99SLO", classField(func(cc *ClusterClass, v float64) { cc.TTFTp99SLO = v })},
		{"Class.LatencyP99SLO", classField(func(cc *ClusterClass, v float64) { cc.LatencyP99SLO = v })},
		{"Class.TPOTp99SLO", classField(func(cc *ClusterClass, v float64) { cc.TPOTp99SLO = v })},
		{"Class.DeadlineSeconds", classField(func(cc *ClusterClass, v float64) { cc.DeadlineSeconds = v })},
		{"Class.HedgeDelaySeconds", classField(func(cc *ClusterClass, v float64) { cc.HedgeDelaySeconds = v })},
		{"Autoscaler.IntervalSeconds", autoscalerField(func(a *ClusterAutoscaler, v float64) { a.IntervalSeconds = v })},
		{"Autoscaler.SLOSeconds", autoscalerField(func(a *ClusterAutoscaler, v float64) { a.SLOSeconds = v })},
		{"Autoscaler.ScaleDownFactor", autoscalerField(func(a *ClusterAutoscaler, v float64) { a.ScaleDownFactor = v })},
		{"Autoscaler.WarmupSeconds", autoscalerField(func(a *ClusterAutoscaler, v float64) { a.WarmupSeconds = v })},
		{"Autoscaler.DrainSeconds", autoscalerField(func(a *ClusterAutoscaler, v float64) { a.DrainSeconds = v })},
		{"Faults.MTTFSeconds", func(c *ClusterConfig, v float64) { c.Faults = ClusterFaults{Enabled: true, MTTFSeconds: v} }},
		{"Faults.MTTRSeconds", faultsField(func(f *ClusterFaults, v float64) { f.MTTRSeconds = v })},
		{"Faults.DegradedFraction", faultsField(func(f *ClusterFaults, v float64) { f.DegradedFraction = v })},
		{"Faults.LUTRematGBps", faultsField(func(f *ClusterFaults, v float64) { f.LUTRematGBps = v })},
		{"Domains.MTBFSeconds", func(c *ClusterConfig, v float64) { c.Domains = ClusterDomains{Enabled: true, MTBFSeconds: v} }},
		{"Domains.MTTRSeconds", func(c *ClusterConfig, v float64) {
			c.Domains = ClusterDomains{Enabled: true, MTBFSeconds: 60, MTTRSeconds: v}
		}},
		{"Stragglers.MTBFSeconds", func(c *ClusterConfig, v float64) {
			c.Stragglers = ClusterStragglers{Enabled: true, MTBFSeconds: v}
		}},
		{"Stragglers.MeanDurationSeconds", func(c *ClusterConfig, v float64) {
			c.Stragglers = ClusterStragglers{Enabled: true, MTBFSeconds: 60, MeanDurationSeconds: v}
		}},
		{"Stragglers.Slowdown", func(c *ClusterConfig, v float64) {
			c.Stragglers = ClusterStragglers{Enabled: true, MTBFSeconds: 60, Slowdown: v}
		}},
		{"Hedge.DelaySeconds", func(c *ClusterConfig, v float64) { c.Hedge = ClusterHedge{Enabled: true, DelaySeconds: v} }},
		{"Retry.BackoffSeconds", func(c *ClusterConfig, v float64) { c.Retry.BackoffSeconds = v }},
		{"Retry.BackoffCapSeconds", func(c *ClusterConfig, v float64) { c.Retry.BackoffCapSeconds = v }},
		{"Obs.MetricsIntervalSeconds", func(c *ClusterConfig, v float64) {
			c.Obs = ObsConfig{MetricsWriter: io.Discard, MetricsJSON: true, MetricsIntervalSeconds: v}
		}},
	}
	serve := []struct {
		field string
		set   func(c *ServeConfig, v float64)
	}{
		{"RatePerSec", func(c *ServeConfig, v float64) { c.RatePerSec = v }},
		{"DurationSeconds", func(c *ServeConfig, v float64) { c.DurationSeconds = v }},
		{"ThinkSeconds", func(c *ServeConfig, v float64) { c.Clients, c.ThinkSeconds = 2, v }},
		{"MeanTokens", func(c *ServeConfig, v float64) { c.MeanTokens = v }},
		{"OutTokensMean", func(c *ServeConfig, v float64) { c.OutTokensMean = v }},
		{"ArrivalTimes", func(c *ServeConfig, v float64) { c.ArrivalTimes = []float64{0.5, v} }},
		{"Obs.MetricsIntervalSeconds", func(c *ServeConfig, v float64) {
			c.Obs = ObsConfig{MetricsWriter: io.Discard, MetricsIntervalSeconds: v}
		}},
	}

	sys := NewSystem(WithSeed(1))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range cluster {
			cfg := clusterTestConfig()
			cfg.Model = OPT125M
			tc.set(&cfg, bad)
			_, err := sys.ServeCluster(cfg)
			if err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("ClusterConfig.%s = %g: got err %v, want a non-finite rejection", tc.field, bad, err)
			}
		}
		for _, tc := range serve {
			cfg := serveTestConfig()
			cfg.Model = OPT125M
			tc.set(&cfg, bad)
			_, err := sys.Serve(cfg)
			if err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("ServeConfig.%s = %g: got err %v, want a non-finite rejection", tc.field, bad, err)
			}
		}
	}
}

func classField(set func(*ClusterClass, float64)) func(*ClusterConfig, float64) {
	return func(c *ClusterConfig, v float64) {
		cc := ClusterClass{Name: "c", RatePerSec: 10}
		set(&cc, v)
		c.Classes = []ClusterClass{cc}
	}
}

func autoscalerField(set func(*ClusterAutoscaler, float64)) func(*ClusterConfig, float64) {
	return func(c *ClusterConfig, v float64) {
		c.Autoscaler = ClusterAutoscaler{Enabled: true, SLOSeconds: 1}
		set(&c.Autoscaler, v)
	}
}

func faultsField(set func(*ClusterFaults, float64)) func(*ClusterConfig, float64) {
	return func(c *ClusterConfig, v float64) {
		c.Faults = ClusterFaults{Enabled: true, MTTFSeconds: 60}
		set(&c.Faults, v)
	}
}

// TestUnknownModel pins that an out-of-range Model is an error at every
// entry point that resolves it, never a panic.
func TestUnknownModel(t *testing.T) {
	const bad = Model(99)
	if got := bad.String(); got != "Model(99)" {
		t.Errorf("String() = %q, want Model(99)", got)
	}
	sys := NewSystem(WithSeed(1))
	if _, err := sys.Infer(bad, W1A3, DesignLoCaLUT, InferOptions{}); err == nil {
		t.Error("Infer accepted an unknown model")
	}
	scfg := serveTestConfig()
	scfg.Model = bad
	if _, err := sys.Serve(scfg); err == nil {
		t.Error("Serve accepted an unknown model")
	}
	ccfg := clusterTestConfig()
	ccfg.Model = bad
	if _, err := sys.ServeCluster(ccfg); err == nil {
		t.Error("ServeCluster accepted an unknown model")
	}
}

// snakeCase is the report wire format's field-name shape.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// untaggedFields walks t — through nested structs, slices and pointers —
// and lists every exported field without an explicit snake_case json
// name. The report types are defined in internal packages; this keeps a
// field added there from leaking a Go-cased key into the public JSON.
func untaggedFields(t reflect.Type, path string, seen map[reflect.Type]bool) []string {
	for t.Kind() == reflect.Ptr || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || seen[t] {
		return nil
	}
	seen[t] = true
	var bad []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !snakeCase.MatchString(name) {
			bad = append(bad, path+"."+f.Name)
		}
		bad = append(bad, untaggedFields(f.Type, path+"."+f.Name, seen)...)
	}
	return bad
}

func TestReportWireFormat(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(ClusterReport{}), reflect.TypeOf(ServeReport{})} {
		if bad := untaggedFields(typ, typ.Name(), map[reflect.Type]bool{}); len(bad) > 0 {
			t.Errorf("fields without a snake_case json tag: %v", bad)
		}
	}
	// The walk itself must catch an untagged or Go-cased field, nested.
	type inner struct {
		FooBar int
	}
	type outer struct {
		OK    int     `json:"ok"`
		Bad   int     `json:"BadName"`
		Inner []inner `json:"inner"`
	}
	got := untaggedFields(reflect.TypeOf(outer{}), "outer", map[reflect.Type]bool{})
	if want := []string{"outer.Bad", "outer.Inner.FooBar"}; !reflect.DeepEqual(got, want) {
		t.Errorf("walk found %v, want %v", got, want)
	}
}
