package cliflags

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"

	"es2"
	"es2/internal/telemetry"
)

// WriteFile creates path and fills it with write, returning the first
// error of the two, or of closing the file.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteJSON writes v as two-space-indented JSON to path ("-" for
// stdout).
func WriteJSON(path string, v any) error {
	encode := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	if path == "-" {
		return encode(os.Stdout)
	}
	return WriteFile(path, encode)
}

// WriteExports writes one scenario's exports under the file-name base
// into each directory given: the telemetry recorder's OpenMetrics
// exposition and windowed series as base.prom and base.csv into
// telemetryDir, and the critical-path report as base.json into critDir.
// An empty directory skips its export.
func WriteExports(base string, tel *telemetry.Recorder, crit *es2.CriticalPath, telemetryDir, critDir string) error {
	if telemetryDir != "" {
		prefix := filepath.Join(telemetryDir, base)
		if err := WriteFile(prefix+".prom", tel.WriteOpenMetrics); err != nil {
			return err
		}
		if err := WriteFile(prefix+".csv", tel.WriteCSV); err != nil {
			return err
		}
	}
	if critDir != "" {
		return WriteJSON(filepath.Join(critDir, base+".json"), crit)
	}
	return nil
}

// Sanitize maps a scenario name to a safe file-name fragment. Names
// that differ only in remapped runes (e.g. "a/b" and "a:b") get
// distinct fragments — an FNV tag of the original is appended whenever
// any rune was remapped — so no two scenarios can overwrite each
// other's artifacts.
func Sanitize(s string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
	if mapped == s {
		return mapped
	}
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%s-%08x", mapped, h.Sum32())
}

// Indent prefixes every line of s with pre, dropping trailing newlines.
func Indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n")
}
