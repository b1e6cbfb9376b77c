package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fpgavirtio/internal/experiments"
)

func TestParseSizesAccepts(t *testing.T) {
	cases := []struct {
		arg  string
		want []int
	}{
		{"64", []int{64}},
		{"64,256,1024", []int{64, 256, 1024}},
		{" 64 , 1458 ", []int{64, 1458}}, // whitespace and the MTU cap itself
		{"1", []int{1}},
	}
	for _, tc := range cases {
		got, err := parseSizes(tc.arg)
		if err != nil {
			t.Errorf("parseSizes(%q) = error %v", tc.arg, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", tc.arg, got, tc.want)
		}
	}
}

func TestParseSizesRejects(t *testing.T) {
	cases := []struct {
		name, arg, want string
	}{
		{"empty", "", "empty"},
		{"blank", "   ", "empty"},
		{"zero", "0", "out of range"},
		{"negative", "-64", "out of range"},
		{"over 64KB", "65537", "out of range"},
		{"over MTU", "1459", "UDP payload cap"},
		{"non-integer", "64,abc", "not an integer"},
		{"float", "64.5", "not an integer"},
		{"empty field", "64,,256", "not an integer"},
		{"good then bad", "64,0", "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseSizes(tc.arg)
			if err == nil {
				t.Fatalf("parseSizes(%q) accepted nonsense", tc.arg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseSizes(%q) error %q, want mention of %q", tc.arg, err, tc.want)
			}
		})
	}
}

func TestValidatePackets(t *testing.T) {
	for _, n := range []int{1, 50, 50000} {
		if err := validatePackets(n); err != nil {
			t.Errorf("validatePackets(%d) = %v", n, err)
		}
	}
	for _, n := range []int{0, -1, -50000} {
		if err := validatePackets(n); err == nil {
			t.Errorf("validatePackets(%d) accepted nonsense", n)
		}
	}
}

func TestValidateStreamFlags(t *testing.T) {
	if err := validateStreamFlags(16, 2, 0); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	if err := validateStreamFlags(1, 1, 5000); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	if err := validateStreamFlags(maxWindow, maxQueuePairs, 0); err != nil {
		t.Errorf("boundary flags rejected: %v", err)
	}
	cases := []struct {
		name           string
		window, qpairs int
		rate           float64
		want           string
	}{
		{"zero window", 0, 1, 0, "window"},
		{"negative window", -4, 1, 0, "window"},
		{"window over list limit", maxWindow + 1, 1, 0, "window"},
		{"zero qpairs", 16, 0, 0, "qpairs"},
		{"qpairs over MSI-X budget", 16, maxQueuePairs + 1, 0, "qpairs"},
		{"negative rate", 16, 1, -1, "rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateStreamFlags(tc.window, tc.qpairs, tc.rate)
			if err == nil {
				t.Fatal("nonsense flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestValidateExperimentFlags(t *testing.T) {
	const sweeps = "the sweep experiments (fig3|fig4|fig5|table1|all)"
	messages := map[string]string{
		"json":      "-json/-csv apply to " + sweeps + " and polltrade, not %q",
		"csv":       "-json/-csv apply to " + sweeps + " and polltrade, not %q",
		"metrics":   "-metrics applies to " + sweeps + ", not %q",
		"flightdir": "-flightdir/-serve apply to " + sweeps + ", not %q",
		"serve":     "-flightdir/-serve apply to " + sweeps + ", not %q",
		"faults":    "-faults applies to " + sweeps + ", not %q",
	}
	cases := []struct {
		name            string
		sweep, artifact bool
	}{
		{"fig3", true, true},
		{"fig4", true, true},
		{"fig5", true, true},
		{"table1", true, true},
		{"all", true, true},
		{"offload", false, false},
		{"ablate-irq", false, false},
		{"bypass", false, false},
		{"porta", false, false},
		{"eventidx", false, false},
		{"osprofiles", false, false},
		{"throughput", false, false},
		{"ringformat", false, false},
		{"polltrade", false, true},
		{"bogus", false, false},
	}
	if len(cases) != len(experiments.Index)+1 {
		t.Fatalf("%d cases for %d index entries plus one unknown name", len(cases), len(experiments.Index))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, known := experiments.Lookup(tc.name)
			if known == (tc.name == "bogus") {
				t.Fatalf("Lookup(%q) known = %v", tc.name, known)
			}
			if err := validateExperimentFlags(e, nil); err != nil {
				t.Errorf("no flags: %v", err)
			}
			for flagName, msg := range messages {
				allowed := tc.sweep
				if flagName == "json" || flagName == "csv" {
					allowed = tc.artifact
				}
				err := validateExperimentFlags(e, map[string]bool{flagName: true})
				switch {
				case allowed && err != nil:
					t.Errorf("-%s rejected: %v", flagName, err)
				case !allowed && err == nil:
					t.Errorf("-%s accepted", flagName)
				case !allowed && err.Error() != fmt.Sprintf(msg, tc.name):
					t.Errorf("-%s: error %q, want %q", flagName, err, fmt.Sprintf(msg, tc.name))
				}
			}
			// The checks run in a fixed order: the artifact check first,
			// then -metrics, -flightdir/-serve and -faults.
			err := validateExperimentFlags(e, map[string]bool{"json": true, "metrics": true, "faults": true})
			want := ""
			switch {
			case !tc.artifact:
				want = fmt.Sprintf(messages["json"], tc.name)
			case !tc.sweep:
				want = fmt.Sprintf(messages["metrics"], tc.name)
			}
			if got := fmt.Sprint(err); want != "" && got != want {
				t.Errorf("three flags: error %q, want %q", got, want)
			} else if want == "" && err != nil {
				t.Errorf("three flags rejected: %v", err)
			}
		})
	}
}
