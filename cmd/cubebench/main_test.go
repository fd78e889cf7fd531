package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// paperIDs are the exhibits cubebench regenerates: the paper's Table 1
// and Figures 14–28, the §7 iceberg remark, and the three ablations.
const paperIDs = "ablation-height ablation-plan ablation-sort " +
	"fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 fig26 fig27 fig28 " +
	"iceberg table1"

func TestListPrintsThePaperExhibits(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(stdout.String())
	if strings.Join(got, " ") != paperIDs || len(got) != 20 {
		t.Fatalf("-list printed %d ids %v, want the 20 paper exhibits %s", len(got), got, paperIDs)
	}
}

// TestFailedRunCleansUp: an error after the harness exists must still
// remove its scratch dir and flush the observability sinks.
func TestFailedRunCleansUp(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "nope", "-metrics-out", metrics}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range strings.Fields(paperIDs) {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error does not name %s: %v", id, err)
		}
	}
	left, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(left) != 0 {
		t.Errorf("scratch left behind in $TMPDIR: %v", left)
	}
	if fi, serr := os.Stat(metrics); serr != nil || fi.Size() == 0 {
		t.Errorf("-metrics-out not flushed on the error path: %v", serr)
	}
}

func TestRemovedFlagsAreRejected(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, args := range [][]string{
		{"-baseline", "x"},
		{"-no-index"},
		{"-format", "json", "-list"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("cubebench %v accepted", args)
		}
	}
}
