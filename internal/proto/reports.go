package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/trace"
)

// The Reports frame payload is binary, in the varint style of the epoch
// rows (DESIGN.md §10):
//
//	uvarint epoch
//	uvarint ncodes, then ncodes × (uvarint len, code bytes)
//	uvarint nreports, then per report a row of rowFields uvarints:
//	    zigzag Ref.Epoch, Ref.Thread, Ref.Index
//	    Ev.Kind, Ev.Addr, Ev.Size, Ev.Src1, Ev.Src2, Ev.Cycle
//	    code index, len(Detail)
//	  followed by the Detail bytes
//
// The code table lists the frame's distinct codes in order of first use, so
// a report-heavy frame names each code once. Reports stay structured on the
// wire: their text is rendered by core.Report.Text where a human reads it.
// The encoding is canonical — minimal varints, distinct codes in first-use
// order, no trailing bytes — and the decoder rejects anything else, so every
// payload it accepts re-encodes to itself.

// Row fields, in wire order.
const (
	fRefEpoch = iota
	fRefThread
	fRefIndex
	fKind
	fAddr
	fSize
	fSrc1
	fSrc2
	fCycle
	fCode
	fDetailLen
	rowFields
)

// maxReportEpoch bounds the tick number, as for Ack frames.
const maxReportEpoch = 1 << 40

var errReports = errors.New("proto: malformed reports frame")

// AppendReports appends the binary Reports payload of r to b.
func AppendReports(b []byte, r Reports) []byte {
	b = binary.AppendUvarint(b, uint64(r.Epoch))
	var buf [8]string
	codes := buf[:0]
	for i := range r.Reports {
		if codeIndex(codes, r.Reports[i].Code) < 0 {
			codes = append(codes, r.Reports[i].Code)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(codes)))
	for _, c := range codes {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Reports)))
	for i := range r.Reports {
		rep := &r.Reports[i]
		row := [rowFields]uint64{
			fRefEpoch:  zigzag(rep.Ref.Epoch),
			fRefThread: zigzag(int(rep.Ref.Thread)),
			fRefIndex:  zigzag(rep.Ref.Index),
			fKind:      uint64(rep.Ev.Kind),
			fAddr:      rep.Ev.Addr,
			fSize:      rep.Ev.Size,
			fSrc1:      rep.Ev.Src1,
			fSrc2:      rep.Ev.Src2,
			fCycle:     rep.Ev.Cycle,
			fCode:      uint64(codeIndex(codes, rep.Code)),
			fDetailLen: uint64(len(rep.Detail)),
		}
		b = slices.Grow(b, len(row)*binary.MaxVarintLen64+len(rep.Detail))
		n := len(b)
		b = b[:n+len(row)*binary.MaxVarintLen64]
		for _, v := range row {
			if v < 0x80 {
				b[n] = byte(v)
				n++
			} else {
				n += binary.PutUvarint(b[n:], v)
			}
		}
		b = append(b[:n], rep.Detail...)
	}
	return b
}

func zigzag(v int) uint64 { return uint64(int64(v)<<1) ^ uint64(int64(v)>>63) }

func codeIndex(codes []string, code string) int {
	for i, c := range codes {
		if c == code {
			return i
		}
	}
	return -1
}

// reportsBufPool recycles WriteReports' payload buffers.
var reportsBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteReports writes r as a Reports frame, header and payload in one
// Write from a pooled buffer.
func WriteReports(w io.Writer, r Reports) error {
	if r.Epoch < 0 || r.Epoch > maxReportEpoch {
		return fmt.Errorf("proto: reports frame for tick %d", r.Epoch)
	}
	bp := reportsBufPool.Get().(*[]byte)
	defer reportsBufPool.Put(bp)
	b := AppendReports(append((*bp)[:0], 0, 0, 0, 0, byte(FrameReports)), r)
	*bp = b
	n := len(b) - 4
	if n > MaxFrame {
		return fmt.Errorf("proto: %v frame of %d bytes exceeds MaxFrame", FrameReports, n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	_, err := w.Write(b)
	return err
}

// DecodeReports parses a Reports frame payload into r. Codes are interned,
// so a client holding many reports keeps one copy of each code, and an
// empty Detail costs no allocation. Every count is checked against the
// bytes that remain before anything is allocated for it, so a forged count
// cannot allocate; any malformed payload is an error.
func DecodeReports(data []byte, r *Reports) error {
	d := rdec{b: data}
	epoch := d.uvarint()
	if epoch > maxReportEpoch {
		return errReports
	}
	ncodes := d.count(1)
	var buf [8]string
	codes := buf[:0]
	for i := 0; i < ncodes && d.err == nil; i++ {
		code := internCode(d.bytes())
		if codeIndex(codes, code) >= 0 {
			return errReports // codes are distinct
		}
		codes = append(codes, code)
	}
	n := d.count(rowFields)
	if d.err != nil {
		return d.err
	}
	var reps []core.Report
	if n > 0 {
		reps = make([]core.Report, n)
	}
	used := 0 // codes seen so far; the table is in first-use order
	var row [rowFields]uint64
	b, at := d.b, d.i // the row loop keeps the cursor in locals
	for i := range reps {
		for k := range row {
			if at < len(b) && b[at] < 0x80 { // almost every field is one byte
				row[k] = uint64(b[at])
				at++
				continue
			}
			v, n := binary.Uvarint(b[at:])
			if n <= 0 || b[at+n-1] == 0 { // truncated, overflowing or not minimal
				return errReports
			}
			row[k] = v
			at += n
		}
		ci := row[fCode]
		if row[fKind] > 0xff || ci > uint64(used) || ci >= uint64(len(codes)) ||
			row[fDetailLen] > uint64(len(b)-at) {
			return errReports
		}
		if ci == uint64(used) {
			used++
		}
		rep := &reps[i]
		rep.Ref = trace.Ref{Epoch: d.int(row[fRefEpoch]), Thread: trace.ThreadID(d.int(row[fRefThread])),
			Index: d.int(row[fRefIndex])}
		rep.Ev = trace.Event{Kind: trace.Kind(row[fKind]), Addr: row[fAddr], Size: row[fSize],
			Src1: row[fSrc1], Src2: row[fSrc2], Cycle: row[fCycle]}
		rep.Code = codes[ci]
		if m := int(row[fDetailLen]); m > 0 {
			rep.Detail = string(b[at : at+m])
			at += m
		}
	}
	if d.err != nil || used != len(codes) || at != len(b) {
		return errReports // a Ref past int, an unused code or trailing bytes
	}
	*r = Reports{Epoch: int(epoch), Reports: reps}
	return nil
}

// rdec is a cursor over a Reports payload. The first error sticks; what
// later reads return is discarded.
type rdec struct {
	b   []byte
	i   int
	err error
}

// uvarint reads a minimally encoded uvarint: one whose last byte is not a
// zero continuation, unless it is the only byte.
func (d *rdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 || n > 1 && d.b[d.i+n-1] == 0 {
		d.err = errReports
		return 0
	}
	d.i += n
	return v
}

// int undoes zigzag on a decoded field, failing if it does not fit an int.
func (d *rdec) int(u uint64) int {
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.err = errReports
	}
	return int(v)
}

// count reads an element count, each element taking at least min bytes of
// what remains.
func (d *rdec) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.i)/uint64(min) {
		d.err = errReports
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (d *rdec) bytes() []byte {
	n := d.count(1)
	d.i += n
	return d.b[d.i-n : d.i]
}

// codeIntern holds the codes decoded so far, so repeated frames reuse one
// string per code. It stops growing at maxInternedCodes: past that, codes
// are allocated per frame, so a peer sending endless fresh codes cannot
// grow it without bound.
var codeIntern struct {
	sync.RWMutex
	m map[string]string
}

const maxInternedCodes = 256

func internCode(b []byte) string {
	codeIntern.RLock()
	s, ok := codeIntern.m[string(b)]
	codeIntern.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	codeIntern.Lock()
	if codeIntern.m == nil {
		codeIntern.m = map[string]string{}
	}
	if len(codeIntern.m) < maxInternedCodes {
		codeIntern.m[s] = s
	}
	codeIntern.Unlock()
	return s
}
