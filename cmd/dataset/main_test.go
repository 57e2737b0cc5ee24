package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hitlist6"
	"hitlist6/internal/addr"
	"hitlist6/internal/hitlist"
	"hitlist6/internal/stats"
)

// studyFiles writes a small study's NTP and Hitlist datasets — the
// files v6study -outdir writes — into a temporary directory.
func studyFiles(t *testing.T) (ntpPath, hlPath string, ntp, hl *hitlist.Dataset) {
	t.Helper()
	cfg := hitlist6.DefaultConfig()
	cfg.Scale, cfg.Days, cfg.SliceDay = 0.02, 10, 6
	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ntpPath, hlPath = filepath.Join(dir, "ntp.hl6"), filepath.Join(dir, "hitlist.hl6")
	for path, d := range map[string]*hitlist.Dataset{ntpPath: study.NTP, hlPath: study.Hitlist.Dataset} {
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return ntpPath, hlPath, study.NTP, study.Hitlist.Dataset
}

// runOK runs the command and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("dataset %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

func TestSubcommands(t *testing.T) {
	ntpPath, hlPath, ntp, hl := studyFiles(t)
	if ntp.Len() == 0 || hl.Len() == 0 {
		t.Fatal("empty study datasets")
	}

	if out := runOK(t, "stats", ntpPath); !strings.Contains(out, "addresses:       "+stats.Comma(int64(ntp.Len()))+"\n") {
		t.Errorf("stats does not count the %d addresses:\n%s", ntp.Len(), out)
	}

	common := hitlist.IntersectionSize(ntp, hl)
	if out := runOK(t, "diff", ntpPath, hlPath); !strings.Contains(out, "common: "+stats.Comma(int64(common))+" ") {
		t.Errorf("diff does not report the %d common addresses:\n%s", common, out)
	}

	merged := filepath.Join(t.TempDir(), "merged.hl6")
	runOK(t, "merge", merged, ntpPath, hlPath)
	f, err := os.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hitlist.ReadDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := hitlist.NewDataset("merged")
	for _, d := range []*hitlist.Dataset{ntp, hl} {
		d.Each(func(a addr.Addr) bool { want.Add(a); return true })
	}
	if got.Name != "merged" || fmt.Sprint(got.Addrs()) != fmt.Sprint(want.Addrs()) {
		t.Errorf("merge read back as %q with %d addresses, want the %d-address union", got.Name, got.Len(), want.Len())
	}

	if out := runOK(t, "release", ntpPath); out != hitlist.Release(ntp) {
		t.Error("release output differs from hitlist.Release")
	}

	var lines []string
	for _, a := range ntp.Addrs() {
		lines = append(lines, a.String())
	}
	if out := runOK(t, "export", ntpPath); out != strings.Join(lines, "\n")+"\n" {
		t.Error("export is not one address per line in dataset order")
	}
}

func TestUsageAndFailureCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"stats"}, 2},
		{[]string{"stats", "a", "b"}, 2},
		{[]string{"diff", "a"}, 2},
		{[]string{"merge", "out", "a"}, 2},
		{[]string{"release"}, 2},
		{[]string{"export"}, 2},
		{[]string{"stats", filepath.Join(t.TempDir(), "missing.hl6")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("dataset %v exited %d, want %d", tc.args, code, tc.code)
		}
	}
}

// failingWriter fails every write, as a closed pipe or a full disk does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

// TestExportWriteError holds export to its writer's errors: a failed
// write exits 1 and says why, whether it surfaces when the buffer first
// fills (1,000 addresses) or only at the final flush (one address).
func TestExportWriteError(t *testing.T) {
	for _, n := range []int{1, 1000} {
		d := hitlist.NewDataset("export")
		for i := range n {
			d.Add(addr.FromParts(0x2001_0db8_0000_0000, uint64(i+1)))
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "export.hl6")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		if code := run([]string{"export", path}, failingWriter{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "write failed") {
			t.Errorf("export of %d addresses to a failing writer exited %d with %q, want 1 and the write error", n, code, stderr.String())
		}
	}
}
