package main

import (
	"encoding/json"
	"testing"
)

// TestRowKeys pins the baseline key of each gated table.
func TestRowKeys(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"table":"solver","entities":64}`, "solver/entities=64"},
		{`{"table":"hardness","experiment":"ccqa-3sat","mode":"cdcl","vars":6}`, "hardness/ccqa-3sat/cdcl/vars=6"},
		{`{"table":"incremental","experiment":"delta-vs-reground","delta_kind":"insert","entities":16}`,
			"incremental/delta-vs-reground/insert/entities=16"},
		{`{"table":"cluster","experiment":"replication","nodes":3,"replicas":1}`, "cluster/replication/nodes=3/replicas=1"},
		{`{"table":"incremental","experiment":"delta-vs-reground","entities":16}`, ""},
	} {
		var r row
		if err := json.Unmarshal([]byte(tc.line), &r); err != nil {
			t.Fatal(err)
		}
		got, ok := r.key()
		if got != tc.want || ok != (tc.want != "") {
			t.Errorf("key(%s) = %q, %v; want %q", tc.line, got, ok, tc.want)
		}
	}
}
