package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/faults"
	"repro/internal/units"
)

// codecSamples runs one result of each shape the codec must carry:
// untraced, traced, fault-injected and degraded (a board lost mid-run).
func codecSamples(tb testing.TB) map[string]*Result {
	tb.Helper()
	untraced := smallGemm()
	untraced.Workload.N = untraced.Workload.NB * 3
	traced := untraced
	traced.Trace = true
	cfgs := map[string]Config{
		"untraced": untraced,
		"traced":   traced,
		"faulted":  chaosConfig(faults.Spec{CapFail: 0.2, CapClamp: 0.2, TaskFail: 0.05, Retries: 3}, 1001),
		"degraded": chaosConfig(faults.Spec{Dropouts: 1}, 1003),
	}
	out := make(map[string]*Result, len(cfgs))
	for name, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out[name] = res
	}
	if out["degraded"].Degraded == nil || out["faulted"].Faults == nil || out["traced"].Trace == nil {
		tb.Fatal("codec samples lost their shape: want a degraded, a faulted and a traced result")
	}
	return out
}

func mustEncode(tb testing.TB, res *Result) []byte {
	tb.Helper()
	p, err := EncodeResult(res)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// FuzzDecodeResult: decoding never panics, and every payload the
// decoder accepts re-encodes to exactly itself (the format is
// canonical).
func FuzzDecodeResult(f *testing.F) {
	for _, res := range codecSamples(f) {
		f.Add(mustEncode(f, res))
	}
	f.Add(mustEncode(f, &Result{}))
	f.Add([]byte(resultMagic))
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResult(payload)
		if err != nil {
			return
		}
		again, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not re-encode to itself:\n in  %x\n out %x", payload, again)
		}
	})
}

// TestResultCodecRoundTrip: decode inverts encode on every result
// shape, field for field, floats bit for bit.
func TestResultCodecRoundTrip(t *testing.T) {
	for name, res := range codecSamples(t) {
		p := mustEncode(t, res)
		got, err := DecodeResult(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("%s: decoded result differs from the original", name)
		}
	}
	// Values DeepEqual cannot vouch for: −0, NaN payloads, infinities.
	odd := &Result{Plan: "H_", Makespan: units.Seconds(math.Copysign(0, -1)), Efficiency: math.Float64frombits(0x7ff8_0000_dead_beef),
		Rate: units.FlopsPerSec(math.Inf(-1))}
	got, err := DecodeResult(mustEncode(t, odd))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(float64(got.Makespan)) != math.Float64bits(float64(odd.Makespan)) ||
		math.Float64bits(got.Efficiency) != math.Float64bits(odd.Efficiency) || !math.IsInf(float64(got.Rate), -1) {
		t.Fatalf("special floats not bit-exact: %v %v %v", got.Makespan, got.Efficiency, got.Rate)
	}
}

// TestDecodeResultRejectsNonCanonical: every way a payload can differ
// from the canonical encoding is an error, never a panic or a silent
// reinterpretation.
func TestDecodeResultRejectsNonCanonical(t *testing.T) {
	good := mustEncode(t, &Result{Plan: "HB", Device: map[string]units.Joules{"CPU0": 1, "GPU0": 2}})
	// Offsets into good: the string total follows the magic and the
	// version, Plan's length byte sits at head, the Device count after
	// Plan, four workload ints and three floats.
	total, head := len(resultMagic)+1, len(resultMagic)+2
	devCount := head + 1 + 2 + 4 + 3*8
	if good[devCount] != 2 {
		t.Fatalf("layout assumption broken: byte %d = %d, want the Device count 2", devCount, good[devCount])
	}
	firstKey, secondKey := devCount+1, devCount+1+1+4+8
	edit := func(f func(p []byte) []byte) []byte { return f(bytes.Clone(good)) }
	cases := map[string][]byte{
		"empty":          nil,
		"trailing byte":  append(bytes.Clone(good), 0),
		"truncated":      good[:len(good)-1],
		"wrong magic":    edit(func(p []byte) []byte { p[0] = 'X'; return p }),
		"string total":   edit(func(p []byte) []byte { p[total]--; return p }),
		"non-minimal":    edit(func(p []byte) []byte { return append(append(p[:head:head], 0x82, 0x00), good[head+1:]...) }),
		"huge count":     edit(func(p []byte) []byte { p[devCount] = 0x7f; return p }),
		"duplicate keys": edit(func(p []byte) []byte { copy(p[secondKey:secondKey+5], p[firstKey:firstKey+5]); return p }),
		"unsorted keys": edit(func(p []byte) []byte {
			copy(p[firstKey:firstKey+5], good[secondKey:secondKey+5])
			copy(p[secondKey:secondKey+5], good[firstKey:firstKey+5])
			return p
		}),
		"bool 2":          edit(func(p []byte) []byte { p[len(p)-4] = 2; return p }),
		"varint overflow": append(append([]byte(resultMagic), resultVersion), bytes.Repeat([]byte{0xff}, 11)...),
	}
	for name, p := range cases {
		if _, err := DecodeResult(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeResult(good); err != nil {
		t.Fatalf("the unedited payload fails: %v", err)
	}
}

// TestDecodeResultRejectsGob: a journal record written before the
// codec existed (a gob stream) fails with the typed format error, which
// is what lets resume treat it as absent.
func TestDecodeResultRejectsGob(t *testing.T) {
	res := codecSamples(t)["faulted"]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	_, err := DecodeResult(buf.Bytes())
	var fe *ResultFormatError
	if !errors.As(err, &fe) || fe.Version != -1 {
		t.Fatalf("gob payload: err = %v, want a *ResultFormatError without a version", err)
	}
	next := mustEncode(t, res)
	next[len(resultMagic)]++
	if _, err := DecodeResult(next); !errors.As(err, &fe) || fe.Version != resultVersion+1 {
		t.Fatalf("next-version payload: err = %v, want a *ResultFormatError for version %d", err, resultVersion+1)
	}
}

// TestRunCellsResumeRerunsGobJournal: a checkpoint journal holding gob
// payloads restores nothing; every cell re-runs, the results digest
// equal to a fresh run, and the journal then holds records that do
// restore.
func TestRunCellsResumeRerunsGobJournal(t *testing.T) {
	cfgs := resumeCells(t)
	fresh, err := RunCells(cfgs, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := ckpt.Manifest{Identity: "gob-journal", RootSeed: 42}
	j, err := ckpt.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(fresh[i]); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(ckpt.Record{Key: cfg.CheckpointKey(), Status: ckpt.StatusDone, Payload: buf.Bytes()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for pass, wantRestored := range []int{0, len(cfgs)} {
		j, err := ckpt.Resume(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCells(cfgs, ParallelOptions{Workers: 2, Checkpoint: j})
		restored := j.Resumed()
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if restored != wantRestored {
			t.Fatalf("pass %d restored %d cell(s), want %d", pass, restored, wantRestored)
		}
		for i, cfg := range cfgs {
			want, err := Digest(cfg, fresh[i])
			if err != nil {
				t.Fatal(err)
			}
			if d, err := Digest(cfg, got[i]); err != nil || d != want {
				t.Errorf("pass %d cell %s: digest differs from a fresh run (%v)", pass, cfg.CheckpointKey(), err)
			}
		}
	}
}

// resultSchema pins every struct field the codec carries, by walking
// the types a Result reaches.  The codec writes these fields and no
// others, so a field added to any of these structs would silently not
// survive a checkpoint.
var resultSchema = []string{
	"core.DegradedRun.Evictions []starpu.Eviction",
	"core.DegradedRun.Plan string",
	"core.FaultReport.CapClamped int",
	"core.FaultReport.CapRetries int",
	"core.FaultReport.Injected faults.Stats",
	"core.FaultReport.Spec string",
	"core.FaultReport.TaskRetries int",
	"core.Result.Degraded *core.DegradedRun",
	"core.Result.Device map[string]units.Joules",
	"core.Result.Efficiency float64",
	"core.Result.Energy units.Joules",
	"core.Result.Faults *core.FaultReport",
	"core.Result.Makespan units.Seconds",
	"core.Result.Plan string",
	"core.Result.Rate units.FlopsPerSec",
	"core.Result.Stats *trace.Stats",
	"core.Result.Trace *spantrace.Trace",
	"core.Result.Workload core.Workload",
	"core.Workload.N int",
	"core.Workload.NB int",
	"core.Workload.Op core.Operation",
	"core.Workload.Precision prec.Precision",
	"faults.Stats.CapClamps int",
	"faults.Stats.CapFailures int",
	"faults.Stats.Dropouts int",
	"faults.Stats.Evictions int",
	"faults.Stats.Requeued int",
	"faults.Stats.TaskFaults int",
	"faults.Stats.Throttles int",
	"spantrace.DeviceEnergy.Device string",
	"spantrace.DeviceEnergy.MeasuredJ units.Joules",
	"spantrace.DeviceEnergy.SpanJ units.Joules",
	"spantrace.DeviceEnergy.StaticJ units.Joules",
	"spantrace.Edge.From int",
	"spantrace.Edge.To int",
	"spantrace.Span.Aborted bool",
	"spantrace.Span.AccelPowerW units.Watts",
	"spantrace.Span.Codelet string",
	"spantrace.Span.EndT units.Seconds",
	"spantrace.Span.GPU int",
	"spantrace.Span.HostPowerW units.Watts",
	"spantrace.Span.Kind string",
	"spantrace.Span.Level string",
	"spantrace.Span.Package int",
	"spantrace.Span.ReadyT units.Seconds",
	"spantrace.Span.Reason string",
	"spantrace.Span.StartT units.Seconds",
	"spantrace.Span.SubmitT units.Seconds",
	"spantrace.Span.Tag string",
	"spantrace.Span.Task int",
	"spantrace.Span.TransferBytes units.Bytes",
	"spantrace.Span.Worker int",
	"spantrace.Span.WorkerName string",
	"spantrace.Trace.Devices []spantrace.DeviceEnergy",
	"spantrace.Trace.Edges []spantrace.Edge",
	"spantrace.Trace.Spans []spantrace.Span",
	"spantrace.Trace.T0 units.Seconds",
	"spantrace.Trace.T1 units.Seconds",
	"spantrace.Trace.Workers []spantrace.WorkerMeta",
	"spantrace.WorkerMeta.ID int",
	"spantrace.WorkerMeta.Kind string",
	"spantrace.WorkerMeta.Name string",
	"starpu.Eviction.Aborted int",
	"starpu.Eviction.Reason string",
	"starpu.Eviction.Requeued int",
	"starpu.Eviction.Stranded int",
	"starpu.Eviction.T units.Seconds",
	"starpu.Eviction.Worker int",
	"trace.Stats.ByCodelet map[string]int",
	"trace.Stats.ByKind map[starpu.WorkerKind]int",
	"trace.Stats.GPUShare float64",
	"trace.Stats.Makespan units.Seconds",
	"trace.Stats.TotalTasks int",
	"trace.Stats.TransferBytes units.Bytes",
	"trace.Stats.Workers []trace.WorkerStat",
	"trace.WorkerStat.Busy units.Seconds",
	"trace.WorkerStat.Kind starpu.WorkerKind",
	"trace.WorkerStat.Name string",
	"trace.WorkerStat.Tasks int",
	"trace.WorkerStat.Transfer units.Seconds",
	"trace.WorkerStat.Utilisation float64",
}

// TestResultSchemaPinned fails when a struct a Result reaches gains,
// loses, renames or retypes a field, because the fixed-schema codec
// would not carry the change.
func TestResultSchemaPinned(t *testing.T) {
	var got []string
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(typ.Elem())
		case reflect.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				got = append(got, fmt.Sprintf("%s.%s %s", typ, f.Name, f.Type))
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(Result{}))
	sort.Strings(got)
	if !reflect.DeepEqual(got, resultSchema) {
		t.Fatalf("the structs a Result reaches changed: update the result codec (codec.go) and bump its version, "+
			"then this list.\nnow:\n\t%s", strings.Join(got, "\n\t"))
	}
}

// BenchmarkResultCodec prices the codec on the two payload shapes the
// benchmark workloads carry: an untraced Table II cell at scale 8 (the
// sweep service's grid) and a traced, fault-injected cell (chaos
// resume).
func BenchmarkResultCodec(b *testing.B) {
	rows, err := ExperimentRows("grid", "all", 8)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := SweepCellConfigs(rows[:1], SweepOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"grid-cell", grid[1]},
		{"traced-faulted", chaosConfig(chaosSpecs[len(chaosSpecs)-1], 1004)},
	}
	for _, sh := range shapes {
		res, err := Run(sh.cfg)
		if err != nil {
			b.Fatal(err)
		}
		payload := mustEncode(b, res)
		b.Run(sh.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				payload, err = EncodeResult(res)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload)), "payload-B")
		})
		b.Run(sh.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err = DecodeResult(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload)), "payload-B")
		})
	}
}
