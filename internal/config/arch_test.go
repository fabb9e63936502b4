package config

import (
	"strings"
	"testing"
)

func TestArchDefaults(t *testing.T) {
	var a ArchConfig
	if a.StackTranslation() {
		t.Error("zero ArchConfig enables stack translation")
	}
	if a.EffStackTLBEntries() != 32 || a.EffStackTLBWays() != 4 || a.EffStackWalkCycles() != 30 {
		t.Errorf("zero-value effective knobs = %d/%d/%d, want 32/4/30",
			a.EffStackTLBEntries(), a.EffStackTLBWays(), a.EffStackWalkCycles())
	}
	for _, name := range ArchBackends {
		if got := (ArchConfig{Backend: name}).StackTranslation(); got != (name == "ndpage") {
			t.Errorf("backend %q: StackTranslation = %v", name, got)
		}
	}
}

func TestArchValidate(t *testing.T) {
	good := ArchConfig{Backend: "ndpage", StackTLBEntries: 64, StackTLBWays: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid arch config rejected: %v", err)
	}
	for _, name := range append([]string{""}, ArchBackends...) {
		if err := (ArchConfig{Backend: name}).Validate(); err != nil {
			t.Errorf("backend %q rejected: %v", name, err)
		}
	}
	for name, a := range map[string]ArchConfig{
		"negative entries": {StackTLBEntries: -1},
		"negative walk":    {StackWalkCycles: -1},
		"ways beyond sets": {Backend: "ndpage", StackTLBEntries: 8, StackTLBWays: 3},
		"non-pow2 sets":    {Backend: "ndpage", StackTLBEntries: 24, StackTLBWays: 4},
		"unknown backend":  {Backend: "no-such-arch"},
	} {
		if err := a.Validate(); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	err := ArchConfig{Backend: "no-such-arch"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "Arch.Backend") ||
		!strings.Contains(err.Error(), strings.Join(ArchBackends, "|")) {
		t.Errorf("unknown-backend error %v does not name the field and list the valid names", err)
	}
}
