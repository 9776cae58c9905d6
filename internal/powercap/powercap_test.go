package powercap

import (
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/prec"
)

func TestParsePlanRoundTrip(t *testing.T) {
	for _, s := range []string{"H", "LLLL", "HHBB", "BBBB", "HHHL"} {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round trip %q -> %q", s, p.String())
		}
	}
	for _, s := range []string{"", "HHXB", "hb"} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("invalid plan %q accepted", s)
		}
	}
}

func TestParsePlanProperty(t *testing.T) {
	f := func(raw []byte) bool {
		s := ""
		valid := len(raw) > 0
		for _, b := range raw {
			c := []byte{'L', 'B', 'H'}[int(b)%3]
			s += string(c)
		}
		p, err := ParsePlan(s)
		if !valid {
			return err != nil
		}
		return err == nil && p.String() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlanQueries(t *testing.T) {
	p := MustParsePlan("HHBL")
	if p.AllHigh() {
		t.Error("HHBL reported AllHigh")
	}
	if !MustParsePlan("HH").AllHigh() {
		t.Error("HH not AllHigh")
	}
	if p.Count(High) != 2 || p.Count(Best) != 1 || p.Count(Low) != 1 {
		t.Errorf("counts wrong: %v", p)
	}
}

func TestCapsResolution(t *testing.T) {
	arch := gpu.A100SXM4() // TDP 400, min 100
	caps := MustParsePlan("HBL").Caps(arch, 0.54)
	if caps[0] != 0 {
		t.Errorf("H cap = %v, want 0 (default)", caps[0])
	}
	if caps[1] != 216 {
		t.Errorf("B cap = %v, want 216 W", caps[1])
	}
	if caps[2] != 100 {
		t.Errorf("L cap = %v, want 100 W", caps[2])
	}
	// Best below the driver window clamps up (64-AMD-2-A100 case where
	// P_best ~ P_min).
	pcie := gpu.A100PCIe() // min 150
	caps = MustParsePlan("B").Caps(pcie, 0.40)
	if caps[0] != 150 {
		t.Errorf("clamped B cap = %v, want 150 W", caps[0])
	}
}

func TestEnumerate(t *testing.T) {
	plans := Enumerate(4)
	want := []string{"LLLL", "HLLL", "HHLL", "HHHL", "HHHH", "HHHB", "HHBB", "HBBB", "BBBB"}
	if len(plans) != len(want) {
		t.Fatalf("got %d plans, want %d: %v", len(plans), len(want), plans)
	}
	got := map[string]bool{}
	for _, p := range plans {
		got[p.String()] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing plan %s", w)
		}
	}
	// Two GPUs: LL, HL, HH, HB, BB.
	if len(Enumerate(2)) != 5 {
		t.Errorf("Enumerate(2) = %v", Enumerate(2))
	}
}

func TestFindBestCapMatchesTableI(t *testing.T) {
	// Large-kernel sweep must land on Table I's optimum.
	arch := gpu.A100SXM4()
	cap, frac := FindBestCap(arch, prec.Double, 3.8e11)
	if frac < 0.50 || frac > 0.58 {
		t.Errorf("best dgemm cap = %v (%.0f%%), want ~54%%", cap, frac*100)
	}
	cap, frac = FindBestCap(arch, prec.Single, 3.8e11)
	if frac < 0.36 || frac > 0.44 {
		t.Errorf("best sgemm cap = %v (%.0f%%), want ~40%%", cap, frac*100)
	}
}

func TestDescribe(t *testing.T) {
	s := Describe(MustParsePlan("HB"), gpu.A100SXM4(), 0.54)
	if s != "HB (400W, 216W)" {
		t.Errorf("Describe = %q", s)
	}
}
