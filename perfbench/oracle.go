package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"strings"
)

// runAllDigest is the SHA-256 of `pimsim -scale quick -tracecache=off run
// all` stdout: direct execution, the one oracle every cached, stored and
// replayed path must reproduce byte for byte. oracle/regen.sh rebuilds it.
//
//go:embed oracle/run_all_quick.sha256
var runAllDigestFile string

func runAllDigest() string { return strings.TrimSpace(runAllDigestFile) }

// sha256Hex returns the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// matchesDigest reports whether out hashes to the hex digest want.
func matchesDigest(out []byte, want string) bool { return sha256Hex(out) == want }

// matchesBytes reports whether out is byte-identical to want. An empty
// output never matches: every oracle in this benchmark is non-empty, and a
// crashed child that printed nothing must not pass against a missing one.
func matchesBytes(out, want []byte) bool { return len(want) > 0 && bytes.Equal(out, want) }
