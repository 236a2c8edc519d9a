package execpool

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The on-disk cell format is self-verifying:
//
//	[8]  magic "FCACELL1"
//	[32] sha256 of the payload
//	[..] payload: gob-encoded cell value
//
// The file name is the cell fingerprint (key + library version), so a stale
// library simply never addresses old entries; a truncated, bit-flipped or
// mid-write file fails the length/magic/checksum gate and reads as a miss.
// Writes go through a temp file + rename, so concurrent writers of the same
// cell are safe: readers only ever see complete files, and the last rename
// wins with identical content.

var cellMagic = [8]byte{'F', 'C', 'A', 'C', 'E', 'L', 'L', '1'}

// errCacheMiss distinguishes "no entry" from "entry present but unusable";
// the pool counts only the latter as a disk error.
var errCacheMiss = errors.New("execpool: cache miss")

type diskCache struct {
	dir string
}

// path shards entries over 256 subdirectories to keep directory listings
// manageable for full-scale sweeps.
func (c *diskCache) path(fp string) string {
	return filepath.Join(c.dir, fp[:2], fp+".cell")
}

// load decodes the entry for fp into the pointer into. It returns
// errCacheMiss when no entry exists and a descriptive error when an entry
// exists but is corrupt or undecodable (the caller recomputes either way).
func (c *diskCache) load(fp string, into any) error {
	raw, err := os.ReadFile(c.path(fp))
	if err != nil {
		if os.IsNotExist(err) {
			return errCacheMiss
		}
		return fmt.Errorf("execpool: read cache entry: %w", err)
	}
	if len(raw) < len(cellMagic)+sha256.Size {
		return fmt.Errorf("execpool: cache entry %s truncated (%d bytes)", fp[:8], len(raw))
	}
	if !bytes.Equal(raw[:len(cellMagic)], cellMagic[:]) {
		return fmt.Errorf("execpool: cache entry %s has wrong magic", fp[:8])
	}
	sum := raw[len(cellMagic) : len(cellMagic)+sha256.Size]
	payload := raw[len(cellMagic)+sha256.Size:]
	if got := sha256.Sum256(payload); !bytes.Equal(sum, got[:]) {
		return fmt.Errorf("execpool: cache entry %s checksum mismatch", fp[:8])
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(into); err != nil {
		return fmt.Errorf("execpool: decode cache entry %s: %w", fp[:8], err)
	}
	return nil
}

// store atomically persists v as the entry for fp.
func (c *diskCache) store(fp string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("execpool: encode cell: %w", err)
	}
	dst := c.path(fp)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), fp[:8]+".tmp*")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	_, err = tmp.Write(cellMagic[:])
	if err == nil {
		_, err = tmp.Write(sum[:])
	}
	if err == nil {
		_, err = tmp.Write(buf.Bytes())
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
