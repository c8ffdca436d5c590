package main

import (
	"strings"
	"testing"
)

func TestParseRunRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		list    string
		bad     []string // names the error must quote
		wantSet []string // names selected when the list is valid
	}{
		{list: "table5", wantSet: []string{"table5"}},
		{list: "table5, schedbench", wantSet: []string{"table5", "schedbench"}},
		{list: "all", wantSet: []string{"all"}},
		{list: "table5,bogus", bad: []string{`"bogus"`}},
		{list: "schedbench,tabel5,rq2", bad: []string{`"tabel5"`, `"rq2"`}},
		{list: "table5,", bad: []string{`""`}},
	} {
		want, err := parseRun(tc.list)
		if len(tc.bad) > 0 {
			if err == nil {
				t.Errorf("parseRun(%q) accepted the list, selecting %v", tc.list, want)
				continue
			}
			for _, b := range tc.bad {
				if !strings.Contains(err.Error(), b) {
					t.Errorf("parseRun(%q) error %q does not name %s", tc.list, err, b)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRun(%q): %v", tc.list, err)
			continue
		}
		if len(want) != len(tc.wantSet) {
			t.Errorf("parseRun(%q) selected %v, want %v", tc.list, want, tc.wantSet)
		}
		for _, name := range tc.wantSet {
			if !want[name] {
				t.Errorf("parseRun(%q) did not select %s", tc.list, name)
			}
		}
	}
}
