package harness

import (
	"context"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	usageFlagRE = regexp.MustCompile(`(?m)^  (-[a-z0-9-]+)`)
	docFlagRE   = regexp.MustCompile("`(-[a-z0-9-]+)")
)

// readmeFlags collects the `-name` tokens from the first cell of every
// row of README's "<bin> flag" tables.
func readmeFlags(readme, bin string) map[string]bool {
	got := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(readme, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || cells[0] != "" {
			inTable = false
			continue
		}
		first := strings.TrimSpace(cells[1])
		switch {
		case strings.HasSuffix(first, " flag"):
			inTable = first == bin+" flag"
		case inTable:
			for _, m := range docFlagRE.FindAllStringSubmatch(first, -1) {
				got[m[1]] = true
			}
		}
	}
	return got
}

// TestREADMEFlagTablesMatchBinaries: the flags each binary registers (read
// off its -h usage text) and the flags README's tables document for it
// are the same set, so neither side can go stale unnoticed.
func TestREADMEFlagTablesMatchBinaries(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, bin := range []string{"hbserve", "hbbench"} {
		usage, err := exec.Command(buildCmd(t, dir, bin), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", bin, err, usage)
		}
		documented := readmeFlags(string(readme), bin)
		var undocumented []string
		for _, m := range usageFlagRE.FindAllStringSubmatch(string(usage), -1) {
			if !documented[m[1]] {
				undocumented = append(undocumented, m[1])
			}
			delete(documented, m[1])
		}
		var unregistered []string
		for name := range documented {
			unregistered = append(unregistered, name)
		}
		sort.Strings(unregistered)
		if len(undocumented)+len(unregistered) != 0 {
			t.Errorf("%s: registered but in no README flag table: %v; in a README flag table but not registered: %v",
				bin, undocumented, unregistered)
		}
	}
}

// TestHbserveRejectsShardsBelowOne: -shards has one meaning — the number
// of shards served, at least one. Zero or a negative count exits
// non-zero naming the flag instead of silently meaning something else.
func TestHbserveRejectsShardsBelowOne(t *testing.T) {
	bin := buildCmd(t, t.TempDir(), "hbserve")
	// A binary that accepts the value would sit in Accept: bound the run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, shards := range []string{"0", "-2"} {
		out, err := exec.CommandContext(ctx, bin, "-n", "64", "-addr", "127.0.0.1:0", "-shards", shards).CombinedOutput()
		if err == nil {
			t.Fatalf("-shards %s: hbserve started and exited 0\n%s", shards, out)
		}
		if !strings.Contains(string(out), "-shards must be >= 1") {
			t.Fatalf("-shards %s: exit does not name the flag: %v\n%s", shards, err, out)
		}
	}
}

// TestHbserveRejectsNBelowOne: a server needs at least one tuple to
// bulk-load. Zero or a negative -n exits non-zero naming the flag,
// durable or not, instead of panicking in the generator or failing
// later in the build.
func TestHbserveRejectsNBelowOne(t *testing.T) {
	bin := buildCmd(t, t.TempDir(), "hbserve")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-n", "0"},
		{"-n", "-1", "-data-dir", t.TempDir()},
	} {
		out, err := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0")...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v: hbserve started and exited 0\n%s", args, out)
		}
		if !strings.Contains(string(out), "-n must be >= 1") || strings.Contains(string(out), "panic") {
			t.Fatalf("%v: exit does not name the flag: %v\n%s", args, err, out)
		}
	}
}
