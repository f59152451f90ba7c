package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"time"
)

// reproDigest is the SHA-256 of `wrhtsim all`'s standard output at the
// commit that defined this benchmark. The output is byte-stable, so any
// change to a simulated number changes it.
const reproDigest = "306fa7fbfe476cc06c187aa180abb2ac59b076dc3eecfaccd39f2dda06400029"

// repro runs the paper evaluation, `wrhtsim all`, as a child process.
type repro struct{ cfg config }

// measure runs reproductions back to back until the time is up (always
// at least one) and checks each one's output digest and exit status.
func (r *repro) measure(seconds float64) (*e2e, error) {
	u := &e2e{}
	start := time.Now()
	for u.attempted == 0 || since(start) < seconds {
		u.attempted++
		if err := r.once(u); err != nil {
			return nil, err
		}
	}
	u.window = since(start)
	return u, nil
}

// once runs one reproduction. Setup is the time from exec to the first
// line of output; the unit of fixed work is the whole reproduction.
func (r *repro) once(u *e2e) error {
	cmd := exec.Command(filepath.Join(r.cfg.out, "wrhtsim"), "all")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting wrhtsim: %w", err)
	}
	h := sha256.New()
	br := bufio.NewReader(out)
	first, rerr := br.ReadBytes('\n')
	setup := since(t0)
	h.Write(first)
	if rerr == nil {
		_, rerr = io.Copy(h, br)
	}
	werr := cmd.Wait()
	wall := since(t0)
	switch {
	case rerr != nil && rerr != io.EOF:
		u.fail("reading wrhtsim output: %v", rerr)
	case werr != nil:
		u.fail("wrhtsim all: %v: %s", werr, bytes.TrimSpace(stderr.Bytes()))
	case hex.EncodeToString(h.Sum(nil)) != reproDigest:
		u.fail("wrhtsim all output digest %x, want %s", h.Sum(nil), reproDigest)
	default:
		cpu, rss := usage(cmd)
		u.setup = append(u.setup, setup)
		u.unit = append(u.unit, wall)
		u.lat = append(u.lat, wall)
		u.cpu = append(u.cpu, cpu)
		u.rss = append(u.rss, rss)
	}
	return nil
}
