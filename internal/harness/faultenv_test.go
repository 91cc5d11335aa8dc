package harness

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"hbtree"
	"hbtree/internal/fault"
)

// TestHbserveArmsFaultsFromEnv: HBTREE_FAULT is hbserve's one way to
// inject device faults. Under a total kernel outage a coalescing server
// answers every GET from the CPU fallback, reports the open breaker and
// the fallback batches in STATS, and names the spec it armed in its log.
func TestHbserveArmsFaultsFromEnv(t *testing.T) {
	const (
		n    = 4096
		seed = 42
		spec = "kernel=1,seed=7"
	)
	bin := buildCmd(t, t.TempDir(), "hbserve")
	cmd := exec.Command(bin, "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed), "-coalesce")
	// Appended last, so it overrides an HBTREE_FAULT the test runs under.
	cmd.Env = append(os.Environ(), fault.EnvVar+"="+spec)
	c := launch(t, cmd)
	defer c.kill()
	conn, r := c.dial(t)
	defer conn.Close()

	pairs := hbtree.GeneratePairs[uint64](n, seed)
	for i := 0; i < 8; i++ {
		p := pairs[i*509%n]
		resp, err := ask(conn, r, fmt.Sprintf("GET %d", p.Key))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		if want := fmt.Sprintf("VALUE %d", p.Value); resp != want {
			t.Fatalf("GET %d under a kernel outage = %q, want %q", p.Key, resp, want)
		}
	}
	line, err := ask(conn, r, "STATS")
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	stats := parseKV(line)
	if fb, _ := strconv.Atoi(stats["fallbacks"]); stats["breaker"] != "open" || fb <= 0 {
		t.Fatalf("STATS under a kernel outage: breaker=%s fallbacks=%s, want open and > 0: %s",
			stats["breaker"], stats["fallbacks"], line)
	}
	if named := fmt.Sprintf("%s=%q", fault.EnvVar, spec); !strings.Contains(c.log(), named) {
		t.Fatalf("log does not name %s:\n%s", named, c.log())
	}
}
