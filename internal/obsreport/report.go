// Package obsreport renders a self-contained HTML report of one sweep
// from its on-disk artifacts: the aggregation tier's rollups.jsonl,
// the checkpoint journal, and the observability event log.  The report
// is a post-hoc view — it reads only files, never live process state —
// so it can be rebuilt at any time after (or during) a run, including
// from a crashed run's directory.
package obsreport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/fsutil"
	"repro/internal/obs"
	"repro/internal/telemetry/agg"
)

// Inputs names the artifact files the report is built from.  Rollups
// is required; Journal and Events are optional (their sections render
// as "not captured" when absent).
type Inputs struct {
	Rollups string
	Journal string
	Events  string
}

// Write renders the report atomically to path.
func Write(path string, in Inputs) error {
	d, err := build(in)
	if err != nil {
		return err
	}
	var b strings.Builder
	if err := reportTmpl.Execute(&b, d); err != nil {
		return fmt.Errorf("obsreport: render: %w", err)
	}
	return fsutil.WriteFileAtomic(path, []byte(b.String()), 0o644)
}

// ---- data model ----

type reportData struct {
	Title      string
	Cells      int
	Degraded   []degradedRow
	Heatmaps   []heatmap
	Histogram  template.HTML
	EventRows  []eventRow
	EventNote  string
	Timeline   []timelineRow
	TimeNote   string
	Resumed    int
	EffMin     string
	EffMax     string
	FaultCount int
}

type heatmap struct {
	Caption string   // platform | workload
	Plans   []string // column order
	Rows    []heatmapRow
}

type heatmapRow struct {
	Label string
	Cells []heatCell
}

type heatCell struct {
	Text  string
	Style template.CSS
}

type degradedRow struct {
	Key, Plan, Survivors string
}

type eventRow struct {
	Type, Cell, Where, SimTime, Detail string
}

type timelineRow struct {
	Seq    int
	Status string
	Key    string
}

// ---- building ----

func build(in Inputs) (*reportData, error) {
	rollups, err := readRollups(in.Rollups)
	if err != nil {
		return nil, err
	}
	d := &reportData{
		Title: "capsim sweep report",
		Cells: len(rollups),
	}
	d.Heatmaps, d.EffMin, d.EffMax = buildHeatmaps(rollups)
	d.Histogram = buildHistogram(rollups)
	for _, r := range rollups {
		if r.Degraded {
			d.Degraded = append(d.Degraded, degradedRow{Key: r.Key, Plan: r.Plan, Survivors: r.DegradedPlan})
		}
	}
	sort.Slice(d.Degraded, func(i, j int) bool { return d.Degraded[i].Key < d.Degraded[j].Key })

	if in.Events != "" {
		rows, resumed, err := readEvents(in.Events)
		if err != nil {
			return nil, err
		}
		d.EventRows = rows
		d.Resumed = resumed
		d.FaultCount = len(rows)
	} else {
		d.EventNote = "no event log captured (run with -metrics-addr or -agg-dir)"
	}

	if in.Journal != "" {
		tl, err := readJournal(in.Journal)
		if err != nil {
			return nil, err
		}
		d.Timeline = tl
	} else {
		d.TimeNote = "no checkpoint journal (run with -checkpoint)"
	}
	return d, nil
}

func readRollups(path string) ([]agg.CellRollup, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obsreport: rollups: %w", err)
	}
	defer f.Close()
	var out []agg.CellRollup
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r agg.CellRollup
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("obsreport: rollups line %d: %w", len(out)+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// faultEventTypes are the event types the report's fault table shows.
var faultEventTypes = map[obs.EventType]bool{
	obs.CapRetryExhausted: true,
	obs.BreakerTripped:    true,
	obs.WorkerEvicted:     true,
	obs.CellHung:          true,
	obs.CellPanicked:      true,
	obs.DegradedRun:       true,
}

func readEvents(path string) (rows []eventRow, resumed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("obsreport: events: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue // a torn tail line in a crashed run is expected
		}
		if ev.Type == obs.CellResumed {
			resumed++
		}
		if !faultEventTypes[ev.Type] {
			continue
		}
		where := ""
		switch ev.Type {
		case obs.WorkerEvicted:
			where = fmt.Sprintf("worker %d", ev.Worker)
		case obs.CapRetryExhausted, obs.BreakerTripped:
			where = fmt.Sprintf("GPU %d", ev.GPU)
		}
		rows = append(rows, eventRow{
			Type:    string(ev.Type),
			Cell:    shortKey(ev.Cell),
			Where:   where,
			SimTime: fmt.Sprintf("%.3fs", ev.SimTime),
			Detail:  ev.Detail,
		})
	}
	return rows, resumed, sc.Err()
}

// timelineCap bounds the journal rows rendered; the tail is the
// interesting part of a resumed run.
const timelineCap = 200

func readJournal(path string) ([]timelineRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obsreport: journal: %w", err)
	}
	defer f.Close()
	var all []timelineRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	seq := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		r, err := ckpt.DecodeRecord(line)
		if err != nil {
			continue // torn tail line after a crash
		}
		seq++
		all = append(all, timelineRow{Seq: seq, Status: string(r.Status), Key: shortKey(r.Key)})
	}
	if len(all) > timelineCap {
		all = all[len(all)-timelineCap:]
	}
	return all, sc.Err()
}

func shortKey(k string) string {
	const max = 72
	if len(k) > max {
		return k[:max] + "…"
	}
	return k
}

// buildHeatmaps renders one efficiency table per (platform, workload),
// rows keyed by scheduler/seed variants, columns by plan.
func buildHeatmaps(rollups []agg.CellRollup) (maps []heatmap, minS, maxS string) {
	if len(rollups) == 0 {
		return nil, "", ""
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range rollups {
		if r.GFlopsPerWatt < min {
			min = r.GFlopsPerWatt
		}
		if r.GFlopsPerWatt > max {
			max = r.GFlopsPerWatt
		}
	}

	type groupKey struct{ platform, workload string }
	groups := make(map[groupKey]map[string]map[string]float64) // group -> rowLabel -> plan -> eff
	planSet := make(map[groupKey]map[string]bool)
	for _, r := range rollups {
		g := groupKey{r.Platform, r.Workload}
		if groups[g] == nil {
			groups[g] = make(map[string]map[string]float64)
			planSet[g] = make(map[string]bool)
		}
		row := r.Scheduler
		if row == "" {
			row = "dmdas"
		}
		if groups[g][row] == nil {
			groups[g][row] = make(map[string]float64)
		}
		groups[g][row][r.Plan] = r.GFlopsPerWatt
		planSet[g][r.Plan] = true
	}

	keys := make([]groupKey, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].platform != keys[j].platform {
			return keys[i].platform < keys[j].platform
		}
		return keys[i].workload < keys[j].workload
	})
	for _, g := range keys {
		plans := make([]string, 0, len(planSet[g]))
		for p := range planSet[g] {
			plans = append(plans, p)
		}
		sort.Strings(plans)
		hm := heatmap{Caption: g.platform + " — " + g.workload, Plans: plans}
		rowLabels := make([]string, 0, len(groups[g]))
		for l := range groups[g] {
			rowLabels = append(rowLabels, l)
		}
		sort.Strings(rowLabels)
		for _, l := range rowLabels {
			row := heatmapRow{Label: l}
			for _, p := range plans {
				eff, ok := groups[g][l][p]
				if !ok {
					row.Cells = append(row.Cells, heatCell{Text: "–"})
					continue
				}
				frac := 0.0
				if max > min {
					frac = (eff - min) / (max - min)
				}
				row.Cells = append(row.Cells, heatCell{
					Text:  fmt.Sprintf("%.3f", eff),
					Style: template.CSS(fmt.Sprintf("background:rgba(46,160,67,%.2f)", 0.08+0.72*frac)),
				})
			}
			hm.Rows = append(hm.Rows, row)
		}
		maps = append(maps, hm)
	}
	return maps, fmt.Sprintf("%.3f", min), fmt.Sprintf("%.3f", max)
}

// buildHistogram renders the cell-makespan histogram as inline SVG.
func buildHistogram(rollups []agg.CellRollup) template.HTML {
	if len(rollups) == 0 {
		return ""
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range rollups {
		if r.MakespanS < min {
			min = r.MakespanS
		}
		if r.MakespanS > max {
			max = r.MakespanS
		}
	}
	const bins = 20
	counts := make([]int, bins)
	span := max - min
	for _, r := range rollups {
		b := 0
		if span > 0 {
			b = int(float64(bins) * (r.MakespanS - min) / span)
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	peak := 1
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	const w, h, pad = 640, 160, 24
	barW := float64(w-2*pad) / bins
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" xmlns="http://www.w3.org/2000/svg">`, w, h+24)
	for i, c := range counts {
		bh := float64(h-10) * float64(c) / float64(peak)
		x := pad + float64(i)*barW
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#2ea043"><title>%d cell(s)</title></rect>`,
			x, float64(h)-bh, barW-2, bh, c)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#555">%.3fs</text>`, pad, h+16, min)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#555" text-anchor="end">%.3fs</text>`, w-pad, h+16, max)
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

var reportTmpl = template.Must(template.New("report").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 72em; color: #1f2328; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.75em 0; }
th, td { border: 1px solid #d0d7de; padding: 0.25em 0.6em; text-align: right; }
th { background: #f6f8fa; }
td.l, th.l { text-align: left; }
.note { color: #656d76; font-style: italic; }
caption { font-weight: 600; text-align: left; padding: 0.4em 0; }
</style></head><body>
<h1>{{.Title}}</h1>
<p>{{.Cells}} cell(s) rolled up{{if .Resumed}}, {{.Resumed}} restored from checkpoint{{end}}.</p>

<h2>Efficiency heatmap (Gflop/s/W)</h2>
{{if .Heatmaps}}<p>Scale: {{.EffMin}} … {{.EffMax}} Gflop/s/W.</p>
{{range .Heatmaps}}<table><caption>{{.Caption}}</caption>
<tr><th class="l">scheduler</th>{{range .Plans}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr><td class="l">{{.Label}}</td>{{range .Cells}}<td style="{{.Style}}">{{.Text}}</td>{{end}}</tr>{{end}}
</table>{{end}}{{else}}<p class="note">no rollups</p>{{end}}

<h2>Cell duration histogram (makespan)</h2>
{{.Histogram}}

<h2>Faults and degradation</h2>
{{if .Degraded}}<table><caption>Degraded cells</caption>
<tr><th class="l">cell</th><th>plan</th><th>survivors</th></tr>
{{range .Degraded}}<tr><td class="l">{{.Key}}</td><td>{{.Plan}}</td><td>{{.Survivors}}</td></tr>{{end}}
</table>{{else}}<p>No degraded cells.</p>{{end}}
{{if .EventRows}}<table><caption>Fault-class events ({{.FaultCount}})</caption>
<tr><th class="l">type</th><th class="l">cell</th><th>where</th><th>sim time</th><th class="l">detail</th></tr>
{{range .EventRows}}<tr><td class="l">{{.Type}}</td><td class="l">{{.Cell}}</td><td>{{.Where}}</td><td>{{.SimTime}}</td><td class="l">{{.Detail}}</td></tr>{{end}}
</table>{{else}}<p class="note">{{if .EventNote}}{{.EventNote}}{{else}}No fault-class events.{{end}}</p>{{end}}

<h2>Resume timeline</h2>
{{if .Timeline}}<table>
<tr><th>#</th><th class="l">status</th><th class="l">cell</th></tr>
{{range .Timeline}}<tr><td>{{.Seq}}</td><td class="l">{{.Status}}</td><td class="l">{{.Key}}</td></tr>{{end}}
</table>{{else}}<p class="note">{{.TimeNote}}</p>{{end}}
</body></html>
`))
