// Package powercap defines the paper's power-state notation and plan
// arithmetic: each GPU of a node is pinned to one of three states —
// L (P_min, the lowest cap the driver accepts), B (P_best, the
// efficiency-optimal cap found by the GEMM sweep) and H (P_max, the
// default TDP) — and a plan is one letter per GPU ("HHBB").
package powercap

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/gpu"
	"repro/internal/prec"
	"repro/internal/units"
)

// Level is one GPU's power state.
type Level byte

// The three states of §IV-C.
const (
	Low  Level = 'L'
	Best Level = 'B'
	High Level = 'H'
)

// Valid reports whether l is one of L, B, H.
func (l Level) Valid() bool { return l == Low || l == Best || l == High }

// Plan assigns one level per GPU.
type Plan []Level

// ParsePlan parses "HHBB"-style notation.
func ParsePlan(s string) (Plan, error) {
	if s == "" {
		return nil, fmt.Errorf("powercap: empty plan")
	}
	p := make(Plan, 0, len(s))
	for i := 0; i < len(s); i++ {
		l := Level(s[i])
		if !l.Valid() {
			return nil, fmt.Errorf("powercap: invalid level %q in plan %q (want L, B or H)", s[i], s)
		}
		p = append(p, l)
	}
	return p, nil
}

// MustParsePlan is ParsePlan that panics, for fixed experiment tables.
func MustParsePlan(s string) Plan {
	p, err := ParsePlan(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the letter notation.
func (p Plan) String() string {
	b := make([]byte, len(p))
	for i, l := range p {
		b[i] = byte(l)
	}
	return string(b)
}

// AllHigh reports whether the plan is the default configuration.
func (p Plan) AllHigh() bool {
	for _, l := range p {
		if l != High {
			return false
		}
	}
	return true
}

// Count reports how many GPUs sit at level l.
func (p Plan) Count(l Level) int {
	n := 0
	for _, v := range p {
		if v == l {
			n++
		}
	}
	return n
}

// Caps resolves the plan into per-GPU power limits for an architecture.
// bestFrac is the P_best fraction of TDP (Table II).  High maps to 0
// (the driver default); Best is clamped into the driver window.
func (p Plan) Caps(arch *gpu.Arch, bestFrac float64) []units.Watts {
	caps := make([]units.Watts, len(p))
	for i, l := range p {
		switch l {
		case Low:
			caps[i] = arch.MinPower
		case Best:
			w := units.Watts(math.Round(float64(arch.TDP) * bestFrac))
			if w < arch.MinPower {
				w = arch.MinPower
			}
			if w > arch.TDP {
				w = arch.TDP
			}
			caps[i] = w
		default:
			caps[i] = 0
		}
	}
	return caps
}

// Enumerate lists the paper's canonical plan set for n GPUs: every
// H^i L^(n-i) ladder (i = 0..n) and every H^i B^(n-i) ladder
// (i = 0..n-1), i.e. for 4 GPUs: LLLL, HLLL, HHLL, HHHL, HHHH, BBBB,
// HBBB, HHBB, HHHB.  §IV-C justifies collapsing permutations: "the
// variation in results was negligible".
func Enumerate(n int) []Plan {
	var plans []Plan
	for h := 0; h <= n; h++ {
		plans = append(plans, ladder(n, h, Low))
	}
	for h := n - 1; h >= 0; h-- {
		plans = append(plans, ladder(n, h, Best))
	}
	return plans
}

// ladder builds H^h X^(n-h).
func ladder(n, h int, rest Level) Plan {
	p := make(Plan, n)
	for i := range p {
		if i < h {
			p[i] = High
		} else {
			p[i] = rest
		}
	}
	return p
}

// FindBestCap sweeps caps in 2 %-of-TDP steps (the paper's protocol,
// §II) and reports the efficiency-optimal cap for a kernel of the given
// precision and per-launch work on the architecture.
func FindBestCap(arch *gpu.Arch, p prec.Precision, work units.Flops) (cap units.Watts, frac float64) {
	curve := arch.Curve(p)
	step := units.Watts(float64(arch.TDP) * 0.02)
	best, _ := curve.BestCap(arch.MinPower, arch.TDP, step, arch.Occupancy(work))
	return best, float64(best) / float64(arch.TDP)
}

// Describe renders a plan with its resolved caps, e.g.
// "HHBB (400W, 400W, 216W, 216W)".
func Describe(p Plan, arch *gpu.Arch, bestFrac float64) string {
	caps := p.Caps(arch, bestFrac)
	parts := make([]string, len(caps))
	for i, c := range caps {
		if c == 0 {
			c = arch.TDP
		}
		parts[i] = fmt.Sprintf("%.0fW", float64(c))
	}
	return fmt.Sprintf("%s (%s)", p, strings.Join(parts, ", "))
}
