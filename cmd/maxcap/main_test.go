package main

import (
	"strings"
	"testing"
)

// TestRunRejectsFleetsItCannotSimulate: each of these used to print a
// report — a 0-backend row served by one backend, a -3 pool row, "1x"
// read as 1 — and must now fail naming the flag and the bad value.
func TestRunRejectsFleetsItCannotSimulate(t *testing.T) {
	for _, tc := range []struct {
		args string
		want []string
	}{
		{"-capacity -backends-sweep 0", []string{"-backends-sweep", "entry 0"}},
		{"-capacity -backends-sweep 1x,2", []string{"-backends-sweep", `"1x"`}},
		{"-capacity -backends-sweep 1,,2", []string{"-backends-sweep", `""`}},
		{"-capacity -pool-sweep -3", []string{"-pool-sweep", "entry -3"}},
		{"-capacity -sessions-sweep 8,-1", []string{"-sessions-sweep", "entry -1"}},
		{"-simulate -backends 0", []string{"-backends 0"}},
		{"-simulate -pool -2", []string{"-pool -2"}},
		{"-simulate -max-sessions -1", []string{"-max-sessions -1"}},
	} {
		err := run(parseFlags(strings.Fields(tc.args)))
		if err == nil {
			t.Errorf("maxcap %s: accepted", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("maxcap %s: error %q does not name %s", tc.args, err, w)
			}
		}
	}
}

// TestRunAcceptsTheDocumentedZeros: 0 stays "unlimited" for the session
// limit and "no pool" for the depth, as a flag and as a sweep entry.
func TestRunAcceptsTheDocumentedZeros(t *testing.T) {
	for _, args := range []string{
		"-simulate -duration 2s -max-sessions 0 -pool 0",
		"-capacity -duration 2s -backends-sweep 1 -pool-sweep 0 -sessions-sweep 0,8",
	} {
		if err := run(parseFlags(strings.Fields(args))); err != nil {
			t.Errorf("maxcap %s: %v", args, err)
		}
	}
}
