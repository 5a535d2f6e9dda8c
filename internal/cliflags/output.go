package cliflags

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"

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

// WriteTelemetry writes base.prom (OpenMetrics exposition) and base.csv
// (windowed series) from one run's telemetry recorder.
func WriteTelemetry(base string, rec *telemetry.Recorder) error {
	if err := WriteFile(base+".prom", rec.WriteOpenMetrics); err != nil {
		return err
	}
	return WriteFile(base+".csv", rec.WriteCSV)
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
