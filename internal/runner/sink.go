package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Field is one named value of a result record. Records carry ordered
// fields (not maps) so sink output is deterministic.
type Field struct {
	Name  string
	Value any
}

// Record is one result row, e.g. one sweep point.
type Record []Field

// Sink consumes result records as a campaign streams them. Writes
// arrive in job order (the pool emits the completed prefix); Close
// flushes buffered output and closes the underlying writer when it is
// an io.Closer.
type Sink interface {
	Write(Record) error
	Close() error
}

// JSONLSink writes one JSON object per record, one record per line,
// preserving field order.
type JSONLSink struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  io.Closer
}

// NewJSONLSink wraps w in a buffered JSON-lines sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Write emits rec as one JSON line.
func (s *JSONLSink) Write(rec Record) error {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range rec {
		if i > 0 {
			b.WriteByte(',')
		}
		name, err := json.Marshal(f.Name)
		if err != nil {
			return fmt.Errorf("runner: jsonl field %q: %w", f.Name, err)
		}
		val, err := json.Marshal(f.Value)
		if err != nil {
			return fmt.Errorf("runner: jsonl field %q: %w", f.Name, err)
		}
		b.Write(name)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteString("}\n")
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(b.Bytes())
	return err
}

// Close flushes the buffer and closes the underlying writer if it is
// closable.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}
