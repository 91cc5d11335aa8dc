package main

import (
	"strings"
	"sync"
	"testing"

	"hbtree"
)

// fuzzServer lazily builds one small regular-variant server shared by
// all fuzz executions (building a tree per input would drown the
// fuzzer). Regular variant so PUT/DEL reach the real update path.
var (
	fuzzOnce sync.Once
	fuzzSrv  *server
)

func fuzzServerInit(f *testing.F) *server {
	f.Helper()
	fuzzOnce.Do(func() {
		pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
		tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, BucketSize: 64})
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv = mustServer(f, tree, serveConfig{})
	})
	return fuzzSrv
}

// FuzzServeProtocol feeds arbitrary lines to the protocol parser: it
// must never panic, empty input produces no reply, and every non-empty
// command produces a reply (ERR for anything malformed or unknown).
func FuzzServeProtocol(f *testing.F) {
	seeds := []string{
		"",
		"   ",
		"GET 5",
		"GET",
		"GET abc",
		"GET 18446744073709551615",
		"GET 99999999999999999999999999",
		"PUT 5 6",
		"PUT 5",
		"PUT 18446744073709551615 1",
		"PUT x y",
		"DEL 5",
		"DEL",
		"DEL -1",
		"RANGE 0 10",
		"RANGE 0 -1",
		"RANGE 0 9999999999",
		"RANGE",
		"SCAN 7 3",
		"SCAN 7",
		"SCAN a b",
		"SCANC 7 3",
		"RANGEC 0 10",
		"EPOCH",
		"REBALANCE STATS",
		"REBALANCE SPLIT 0",
		"REBALANCE MERGE 0",
		"REBALANCE SPLIT x",
		"REBALANCE",
		"DESCRIBE",
		"STATS",
		"SHARDSTATS",
		"QUIT",
		"quit",
		"FLY me to the moon",
		"\x00\x01\x02",
		"GET\t5",
		"PUT 1 2 3 4",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := fuzzServerInit(f)
	f.Fuzz(func(t *testing.T, line string) {
		var sb strings.Builder
		quit := srv.handleLine(&sb, line)
		out := sb.String()

		fields := strings.Fields(line)
		if len(fields) == 0 {
			if out != "" {
				t.Fatalf("blank line %q produced output %q", line, out)
			}
			return
		}
		// Every real command line gets a reply.
		if out == "" {
			t.Fatalf("command %q produced no reply", line)
		}
		// Replies are line-terminated, so a pipelined client never
		// blocks waiting for a missing newline.
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("reply to %q not newline-terminated: %q", line, out)
		}
		cmd := strings.ToUpper(fields[0])
		switch cmd {
		case "GET", "PUT", "DEL", "RANGE", "SCAN", "SCANC", "RANGEC", "EPOCH",
			"REBALANCE", "DESCRIBE", "STATS", "SHARDSTATS", "QUIT":
			// Known commands reply per-protocol; checked by the unit
			// tests. Here only the no-panic/no-silence contract applies.
		default:
			if !strings.HasPrefix(out, "ERR") {
				t.Fatalf("unknown command %q got non-ERR reply %q", line, out)
			}
		}
		if quit && cmd != "QUIT" {
			t.Fatalf("line %q closed the session", line)
		}
	})
}

// fuzzRig lazily builds the split rig shared by all FuzzServeConn
// executions of a process. Its servers accumulate the writes of every
// stream they have been fed, all in the same order, so they stay
// comparable with each other from one execution to the next.
var (
	fuzzRigOnce sync.Once
	fuzzRig     *splitRig
)

// FuzzServeConn feeds an arbitrary byte stream to the connection loop
// as one read, a byte per read, and cut at arbitrary offsets — to one
// shard and four, without and with -coalesce — and requires byte-identical
// reply streams, across the cuts and across all four servers: neither
// grouping pipelined GETs nor the shard layout may show in what a client
// reads. TestServeConnSplitInvariant is its seeded half.
func FuzzServeConn(f *testing.F) {
	for _, s := range []string{
		"GET 5\nGET 6\nGET 7\n",
		"PUT 5 6\nGET 5\nDEL 5\nGET 5\n",
		"GET 5\r\nGET\n\nGET x\nGET 5",
		"RANGE 0 3\nGET 1\nget\t2\nQUIT\nGET 3\n",
		"GET 18446744073709551615\nGET 18446744073709551616\nGET  7 \n",
		"\x00\xffGET 1\n\xc2\xa0GET\xc2\xa01\n",
		"RANGE 0 600\nSCAN 0 600\n", // crosses two of the four-shard servers' bounds
	} {
		f.Add([]byte(s), int64(1))
	}
	fuzzRigOnce.Do(func() { fuzzRig = newSplitRig(f) })
	f.Fuzz(func(t *testing.T, input []byte, seed int64) {
		if !comparableStream(input) {
			t.Skip("reply depends on counters or changes the shard layout")
		}
		fuzzRig.check(t, input, seed)
	})
}
