package experiments

import (
	"errors"
	"fmt"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/harness"
	"mayacache/internal/snapshot"
)

// TestBadConfigOnly pins the exit-2 taxonomy: a run whose only failures
// are invalid cache configurations is usage error, but a single real
// simulation failure in the mix demotes it back to exit 1.
func TestBadConfigOnly(t *testing.T) {
	bad := &harness.RunError{Err: fmt.Errorf("cell: %w",
		cachemodel.BadConfigf("cachemodel: Cores must be positive, got 0"))}
	sim := &harness.RunError{Err: errors.New("panic: index out of range")}
	cases := []struct {
		name  string
		fails []*harness.RunError
		want  bool
	}{
		{"no failures", nil, false},
		{"all bad config", []*harness.RunError{bad, bad}, true},
		{"mixed", []*harness.RunError{bad, sim}, false},
		{"all simulation", []*harness.RunError{sim}, false},
	}
	for _, c := range cases {
		if got := badConfigOnly(c.fails); got != c.want {
			t.Errorf("%s: badConfigOnly = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMismatchOnly covers the sibling stale-snapshot classification.
func TestMismatchOnly(t *testing.T) {
	mm := &harness.RunError{Err: fmt.Errorf("cell: %w",
		&snapshot.MismatchError{Field: "seed", Want: "1", Got: "2"})}
	sim := &harness.RunError{Err: errors.New("boom")}
	if field, only := mismatchOnly([]*harness.RunError{mm, mm}); !only || field != "seed" {
		t.Errorf("mismatchOnly(all mm) = %q,%v, want \"seed\",true", field, only)
	}
	if _, only := mismatchOnly([]*harness.RunError{mm, sim}); only {
		t.Error("mismatchOnly accepted a mixed failure list")
	}
	if _, only := mismatchOnly(nil); only {
		t.Error("mismatchOnly accepted an empty failure list")
	}
}
