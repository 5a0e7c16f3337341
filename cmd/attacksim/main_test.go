package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"

	"mayacache/internal/experiments"
)

// TestValidate pins the usage contract that maps to exit 2.
func TestValidate(t *testing.T) {
	valid := experiments.AttackSpec{Sets: 16, Runs: 3, Max: 250, Noise: 48, Seed: 1, Workers: 1}
	cases := []struct {
		name   string
		exp    string
		mutate func(s *experiments.AttackSpec)
		ok     bool
	}{
		{"valid", "all", func(s *experiments.AttackSpec) {}, true},
		{"one run, no noise", "fig8", func(s *experiments.AttackSpec) { s.Runs, s.Noise = 1, 0 }, true},
		{"unknown experiment", "fig9", func(s *experiments.AttackSpec) {}, false},
		{"zero workers", "all", func(s *experiments.AttackSpec) { s.Workers = 0 }, false},
		{"sets not a power of two", "all", func(s *experiments.AttackSpec) { s.Sets = 24 }, false},
		{"one set", "all", func(s *experiments.AttackSpec) { s.Sets = 1 }, false},
		{"zero runs", "all", func(s *experiments.AttackSpec) { s.Runs = 0 }, false},
		{"negative runs", "all", func(s *experiments.AttackSpec) { s.Runs = -1 }, false},
		{"zero max", "all", func(s *experiments.AttackSpec) { s.Max = 0 }, false},
		{"negative max", "all", func(s *experiments.AttackSpec) { s.Max = -5 }, false},
		{"negative noise", "all", func(s *experiments.AttackSpec) { s.Noise = -1 }, false},
	}
	for _, tc := range cases {
		s := valid
		tc.mutate(&s)
		err := validate(tc.exp, s)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid flags accepted", tc.name)
		}
	}
}

// TestFlagMisuseExits2 runs the binary: each misuse must exit 2 with a
// message on stderr before any simulation writes to stdout.
func TestFlagMisuseExits2(t *testing.T) {
	bin := buildCommand(t)
	for _, args := range []string{"-runs 0", "-runs -1", "-max 0", "-max -5", "-noise -1", "-sets 24", "-workers 0", "-experiment fig9"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("attacksim %s: %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "attacksim: ") {
			t.Errorf("attacksim %s: stdout %q, stderr %q", args, stdout.Bytes(), stderr.Bytes())
		}
	}
}
