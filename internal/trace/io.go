package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteCSV writes a trace in the webcachesim-style "time key size"
// space-separated format, one request per line.
func WriteCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Reqs {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", r.Time, r.Key, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. Blank lines and lines
// starting with '#' are skipped.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		tm, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %v", lineNo, err)
		}
		key, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad key: %v", lineNo, err)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %v", lineNo, err)
		}
		t.Reqs = append(t.Reqs, Request{Time: tm, Key: Key(key), Size: size, Next: NoNext})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile loads a trace from a file written by WriteCSV,
// transparently decompressing .gz files (production traces are
// customarily shipped gzipped). A trace that fails Validate is
// rejected with Validate's error.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	t, err := ReadCSV(r, path)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile stores a trace, gzip-compressing when path ends in .gz.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := WriteCSV(w, t); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}
