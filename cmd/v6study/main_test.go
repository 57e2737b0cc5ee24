package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hitlist6"
)

// TestRunWritesEveryArtefact runs a small study through the command
// with every output flag and checks each artefact against the same
// study run in process: stdout is the report, -release the /48 release,
// -json the summary, and -outdir the three datasets and the alias list.
func TestRunWritesEveryArtefact(t *testing.T) {
	dir := t.TempDir()
	release := filepath.Join(dir, "release-48.txt")
	summary := filepath.Join(dir, "summary.json")
	outdir := filepath.Join(dir, "datasets")
	var stdout, stderr bytes.Buffer
	args := []string{"-seed", "3", "-scale", "0.05", "-days", "30",
		"-release", release, "-json", summary, "-outdir", outdir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("v6study exited %d: %s", code, stderr.String())
	}

	cfg := hitlist6.DefaultConfig()
	cfg.Seed, cfg.Scale, cfg.Days, cfg.SliceDay = 3, 0.05, 30, 20
	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Run(); err != nil {
		t.Fatal(err)
	}
	report, err := study.Report()
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != report+"\n" {
		t.Errorf("stdout is not the study's report:\n%s", stdout.String())
	}

	rel, err := study.ReleaseNTP()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := study.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{release: []byte(rel), summary: raw}
	for _, f := range []struct {
		name string
		data io.WriterTo
	}{
		{"ntp.hl6", study.NTP},
		{"hitlist.hl6", study.Hitlist.Dataset},
		{"caida.hl6", study.CAIDA},
		{"aliased-prefixes.txt", study.Hitlist.Aliases},
	} {
		var buf bytes.Buffer
		if _, err := f.data.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		want[filepath.Join(outdir, f.name)] = buf.Bytes()
	}
	for path, w := range want {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if len(w) == 0 || !bytes.Equal(got, w) {
			t.Errorf("%s: %d bytes, want the study's %d", filepath.Base(path), len(got), len(w))
		}
	}
}

// TestRunClosesDebugListener: the debug surface lives as long as run
// does; once run returns, its address refuses connections.
func TestRunClosesDebugListener(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "0.02", "-days", "10",
		"-debug.listen", "127.0.0.1:0", "-log.format", "json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("v6study exited %d: %s", code, stderr.String())
	}
	var addr string
	for _, line := range strings.Split(stderr.String(), "\n") {
		var rec struct{ Msg, Addr string }
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "debug surface up" {
			addr = rec.Addr
		}
	}
	if addr == "" {
		t.Fatalf("no debug surface address logged:\n%s", stderr.String())
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("debug surface %s still accepts connections after run returned", addr)
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-window", "7"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
}
