package main

import (
	"reflect"
	"testing"
)

// A retired or mistyped -exp must fail loudly, not exit 0 having run
// nothing; the accepted set is the paper's own tables and figures.
func TestExpNames(t *testing.T) {
	want := []string{"table1", "table2", "figure4", "figure5", "table3", "all"}
	if got := expNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("accepted experiments = %v, want %v", got, want)
	}
	for _, name := range []string{"kernels", "nosuch"} {
		if err := run([]string{"-exp", name}); err == nil {
			t.Errorf("-exp %s: no error", name)
		}
	}
}
