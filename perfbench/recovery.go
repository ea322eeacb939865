package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

type recovery struct {
	ns       []int64  // one per restart: start servers, open sessions, one read answered per server
	replayed uint64   // WAL records the last restart replayed
	openNs   int64    // summed core.NewServer time of the last restart
	after    []histOp // operations run against the last restart
	gateErrs []error
}

// measureRecovery restarts a killed ring, repeated like set-up
// (enoughRepeats); recovery_s is the median restart. With a
// WAL, every restart starts from a fresh copy of the directories exactly
// as the kill left them, so each replays the same log; without one, each
// is a cold start of an empty ring. A restart is timed from starting the
// servers until every server has answered one read. After the last
// restart every object is read back at every server, so the gate can
// check that every acknowledged write survived.
func measureRecovery(w *workload, walRoot string, seed uint64) (*recovery, error) {
	killed := ""
	if walRoot != "" {
		killed = walRoot + ".killed"
		if err := os.Rename(walRoot, killed); err != nil {
			return nil, err
		}
	}
	rc := &recovery{}
	for last := false; !last; {
		if killed != "" {
			if err := os.RemoveAll(walRoot); err != nil {
				return nil, err
			}
			if err := copyTree(killed, walRoot); err != nil {
				return nil, err
			}
		}
		t0 := now()
		cl, err := startCluster(nServers, walRoot, nil)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		g, err := cl.dial([]int{0, 1, 2}, w, seed, postClientID)
		if err == nil {
			err = g.eachConn(func(c *genConn) error {
				return c.runClosedLoop(phaseReadback, 1, farFuture, []int{0}, false)
			})
			if err == nil && !g.drain(drainTimeout) {
				err = errNotDrained
			}
		}
		rc.ns = append(rc.ns, now()-t0)
		last = err != nil || enoughRepeats(rc.ns)
		if err == nil && last {
			rc.replayed = cl.walStats().Replayed
			for _, ns := range cl.openNs {
				rc.openNs += ns
			}
			if walRoot != "" {
				all := make([]int, w.objects)
				for i := range all {
					all[i] = i
				}
				err = g.eachConn(func(c *genConn) error {
					return c.runClosedLoop(phaseReadback, w.window, farFuture, all, false)
				})
				if !g.drain(drainTimeout) {
					rc.gateErrs = append(rc.gateErrs, fmt.Errorf("read-back after restart: %w", errNotDrained))
				}
			}
		}
		if g != nil {
			g.close()
			rc.gateErrs = append(rc.gateErrs, g.receiveErrors())
			if last {
				rc.after = g.collect()
			}
		}
		cl.stop(true)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
	}
	if walRoot == "" {
		for _, a := range rc.after {
			if a.complete() && !a.tag.IsZero() {
				rc.gateErrs = append(rc.gateErrs, fmt.Errorf("restarted ring without a WAL returned tag %s", a.tag))
				break
			}
		}
		rc.after = nil
	}
	return rc, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
