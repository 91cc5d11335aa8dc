package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/wal"
)

// walRungs times Log.Append of one-op records twice: behind the
// server's group-commit window (what a PUT pays, tick wait included)
// and with inline fsync (frame, write, fsync: the floor under it).
func (l *ladder) walRungs() error {
	for _, r := range []struct {
		rung, parent, metric string
		interval             time.Duration
	}{
		{"wal.append", "", "wal.append_ns", fsyncInterval},
		{"wal.sync", "serve.durable_update", "wal.sync_ns", 0},
	} {
		log, err := wal.Open(filepath.Join(l.workDir, r.rung), 0, 64, wal.Options{FsyncInterval: r.interval})
		if err != nil {
			return fmt.Errorf("wal.Open: %w", err)
		}
		var payload []byte
		for i := range l.writes {
			payload = wal.AppendOps(payload[:0], l.writes[i:i+1], byte(core.Synchronized))
			t0 := time.Now()
			_, err := log.Append(payload)
			t1 := time.Now()
			if err != nil {
				log.Close()
				return fmt.Errorf("Log.Append: %w", err)
			}
			l.span(r.rung, r.parent, i, 1, t0, t1)
		}
		l.out.Attempted += len(l.writes)
		if st := log.Stats(); st.Appends != int64(len(l.writes)) {
			l.failf("%s: %d appends recorded, %d made", r.rung, st.Appends, len(l.writes))
		}
		if err := log.Close(); err != nil {
			return fmt.Errorf("Log.Close: %w", err)
		}
		l.set(r.metric, r.rung)
	}
	return nil
}
