package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Goldens are committed for the workload seeds 1 and 2 (2 is held out: no
// benchmark code was tuned against it). Other seeds are checked by the
// self-consistency and replay checks alone.

func (rc *runCtx) goldenPath(ext string) string {
	size := ""
	if rc.tiny {
		size = "-tiny"
	}
	return filepath.Join(rc.goldens, fmt.Sprintf("%s-seed%d%s.%s", rc.workload, rc.seed, size, ext))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGoldenText compares output bytes with the committed golden text for
// this seed, if there is one (or writes it with -update-goldens).
func (rc *runCtx) checkGoldenText(got []byte) error {
	path := rc.goldenPath("txt")
	if rc.update {
		return os.WriteFile(path, got, 0o644)
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	rc.check(bytes.Equal(got, want), "output differs from golden %s", path)
	return nil
}

// checkGoldenDigests compares per-key output digests with the committed
// golden for this seed, if there is one (or writes it with -update-goldens).
func (rc *runCtx) checkGoldenDigests(got map[string]string) error {
	path := rc.goldenPath("json")
	if rc.update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		rc.check(false, "golden %s: %v", path, err)
		return nil
	}
	rc.check(len(want) == len(got), "golden %s has %d outputs, run produced %d", path, len(want), len(got))
	for k, w := range want {
		rc.check(got[k] == w, "output %s differs from golden %s", k, path)
	}
	return nil
}
