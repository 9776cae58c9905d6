package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// parse parses args the way main does, without exiting on errors.
func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("capserved", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

func TestParseArgsRejectsUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stray argument", []string{"-experiment", "grid", "fig3"}, `unexpected argument "fig3"`},
		{"stray argument before flags", []string{"extra", "-workers", "2"}, `unexpected argument "extra"`},
		{"negative cell timeout", []string{"-cell-timeout", "-5s"}, "-cell-timeout -5s is negative"},
		{"serial with workers", []string{"-serial", "-workers", "2"}, "-serial and -workers are mutually exclusive"},
		{"bad net faults", []string{"-net-faults", "drop=2"}, "-net-faults"},
		{"unknown net fault", []string{"-net-faults", "bogus=1"}, "-net-faults"},
		{"negative workers", []string{"-workers", "-1"}, "-workers -1 is negative"},
		{"negative max queue", []string{"-max-queue", "-3"}, "-max-queue -3 is negative"},
		{"negative tenant quota", []string{"-tenant-quota", "-1"}, "-tenant-quota -1 is negative"},
		{"negative max failures", []string{"-max-failures", "-2"}, "-max-failures -2 is negative"},
		{"negative kill budget", []string{"-kill-budget", "-1"}, "-kill-budget -1 is negative"},
		{"negative lease ttl", []string{"-lease-ttl", "-1s"}, "-lease-ttl -1s is negative"},
		{"negative drain grace", []string{"-drain-grace", "-2s"}, "-drain-grace -2s is negative"},
		{"unknown flag", []string{"-coordinator", "http://127.0.0.1:1"}, "-coordinator"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parse(tc.args...)
			if err == nil {
				t.Fatalf("accepted %q as %+v", tc.args, o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseArgsAccepts(t *testing.T) {
	o, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if o.listen != "127.0.0.1:0" || o.platform != "all" || o.scale != 1 || o.netSeed != 1 ||
		o.drainGrace != 30*time.Second || o.workers != 0 || o.serial || o.experiment != "" {
		t.Errorf("defaults parsed as %+v", o)
	}

	o, err = parse("-experiment", "grid", "-platform", "24-Intel-2-V100", "-scale", "8", "-seed", "7",
		"-workers", "3", "-worker-bin", "/bin/true", "-agg-dir", "agg", "-checkpoint", "ck",
		"-max-queue", "2", "-tenant-quota", "1", "-max-failures", "4", "-kill-budget", "2",
		"-cell-timeout", "2s", "-lease-ttl", "3s", "-net-faults", "drop=0.05,delay=20ms", "-net-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if o.experiment != "grid" || o.platform != "24-Intel-2-V100" || o.scale != 8 || o.seed != 7 ||
		o.workers != 3 || o.workerBin != "/bin/true" || o.aggDir != "agg" || o.checkpoint != "ck" ||
		o.maxQueue != 2 || o.tenantQuota != 1 || o.maxFailures != 4 || o.killBudget != 2 ||
		o.cellTimeout != 2*time.Second || o.leaseTTL != 3*time.Second ||
		o.netFaults != "drop=0.05,delay=20ms" || o.netSeed != 9 {
		t.Errorf("parsed %+v", o)
	}

	// -serial alone, and zeros meaning "the default", are fine.
	o, err = parse("-serial", "-workers", "0", "-max-queue", "0", "-kill-budget", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !o.serial {
		t.Errorf("parsed %+v", o)
	}
}
