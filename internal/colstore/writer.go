package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"metaopt/internal/atomicio"
	"metaopt/internal/ml"
)

// Writer streams a dataset into the columnar format one example at a time.
// Rows accumulate in a bounded column buffer and are sealed into an on-disk
// chunk every ChunkRows appends, so writing a corpus never holds more than
// one chunk of feature floats beyond what the caller already has — the
// append-only shape the distributed merge needs. Finish seals the last chunk
// and commits the chunk directory, counters, and CRC footer.
//
// The writer never seeks: the CRC and every directory offset are tracked as
// bytes go out, so it composes with atomicio.WriteFile's temp-file stream.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	off int64

	dim     int
	meta    Meta
	scratch []byte

	// current chunk accumulation, column-major
	names  []byte // uvarint-framed benchmark+name pairs, row order
	feats  [][]float64
	labels []int64
	cycles [Factors][]int64

	dir  []dirEnt
	rows int64
	done bool
}

type dirEnt struct {
	off  uint64
	rows uint64
}

// NewWriter writes the header and returns a writer appending to w. The
// feature names fix the column count; config is free-form provenance,
// fingerprinted into the header meta.
func NewWriter(w io.Writer, featureNames []string, config string) (*Writer, error) {
	if len(featureNames) == 0 {
		return nil, fmt.Errorf("colstore: no feature names — the column count comes from them")
	}
	cw := &Writer{
		w:   w,
		crc: crc32.New(crcTable),
		dim: len(featureNames),
		meta: Meta{
			FeatureNames: featureNames,
			Config:       config,
			Fingerprint:  ConfigFingerprint(config),
			Factors:      Factors,
			ChunkRows:    DefaultChunkRows,
		},
		feats: make([][]float64, len(featureNames)),
	}
	metaJSON, err := json.Marshal(&cw.meta)
	if err != nil {
		return nil, fmt.Errorf("colstore: encode meta: %w", err)
	}
	var head [headerFixed]byte
	binary.LittleEndian.PutUint32(head[0:], headMagic)
	binary.LittleEndian.PutUint32(head[4:], Version)
	binary.LittleEndian.PutUint64(head[8:], uint64(len(metaJSON)))
	if err := cw.write(head[:]); err != nil {
		return nil, err
	}
	if err := cw.write(metaJSON); err != nil {
		return nil, err
	}
	if err := cw.writeZeros(pad8(len(metaJSON))); err != nil {
		return nil, err
	}
	return cw, nil
}

// Append adds one example. Its feature width must match the header's
// feature names.
func (cw *Writer) Append(e *ml.Example) error {
	if cw.done {
		return fmt.Errorf("colstore: append after Finish")
	}
	if len(e.Features) != cw.dim {
		return fmt.Errorf("colstore: example %s has %d features, want %d", e.Name, len(e.Features), cw.dim)
	}
	cw.names = binary.AppendUvarint(cw.names, uint64(len(e.Benchmark)))
	cw.names = append(cw.names, e.Benchmark...)
	cw.names = binary.AppendUvarint(cw.names, uint64(len(e.Name)))
	cw.names = append(cw.names, e.Name...)
	for j, v := range e.Features {
		cw.feats[j] = append(cw.feats[j], v)
	}
	cw.labels = append(cw.labels, int64(e.Label))
	for u := 1; u <= Factors; u++ {
		cw.cycles[u-1] = append(cw.cycles[u-1], e.Cycles[u])
	}
	if len(cw.labels) >= DefaultChunkRows {
		return cw.seal()
	}
	return nil
}

// seal flushes the buffered rows as one chunk and records it in the
// directory.
func (cw *Writer) seal() error {
	rows := len(cw.labels)
	if rows == 0 {
		return nil
	}
	cw.dir = append(cw.dir, dirEnt{off: uint64(cw.off), rows: uint64(rows)})
	var head [chunkFixed]byte
	binary.LittleEndian.PutUint32(head[0:], chunkMagic)
	binary.LittleEndian.PutUint32(head[4:], uint32(rows))
	binary.LittleEndian.PutUint64(head[8:], uint64(len(cw.names)))
	if err := cw.write(head[:]); err != nil {
		return err
	}
	if err := cw.write(cw.names); err != nil {
		return err
	}
	if err := cw.writeZeros(pad8(len(cw.names))); err != nil {
		return err
	}
	for _, col := range cw.feats {
		if err := cw.writeFloats(col); err != nil {
			return err
		}
	}
	if err := cw.writeInts(cw.labels); err != nil {
		return err
	}
	for u := 0; u < Factors; u++ {
		if err := cw.writeInts(cw.cycles[u]); err != nil {
			return err
		}
	}
	cw.rows += int64(rows)
	cw.names = cw.names[:0]
	for j := range cw.feats {
		cw.feats[j] = cw.feats[j][:0]
	}
	cw.labels = cw.labels[:0]
	for u := range cw.cycles {
		cw.cycles[u] = cw.cycles[u][:0]
	}
	return nil
}

// Finish seals any buffered rows and writes the footer. The writer is
// unusable afterwards.
func (cw *Writer) Finish() error {
	if cw.done {
		return fmt.Errorf("colstore: double Finish")
	}
	if err := cw.seal(); err != nil {
		return err
	}
	cw.done = true
	var ent [16]byte
	for _, d := range cw.dir {
		binary.LittleEndian.PutUint64(ent[0:], d.off)
		binary.LittleEndian.PutUint64(ent[8:], d.rows)
		if err := cw.write(ent[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(ent[0:], uint64(len(cw.dir)))
	binary.LittleEndian.PutUint64(ent[8:], uint64(cw.rows))
	if err := cw.write(ent[:]); err != nil {
		return err
	}
	// The CRC covers every byte written so far, including the directory.
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], cw.crc.Sum32())
	binary.LittleEndian.PutUint32(tail[4:], tailMagic)
	_, err := cw.w.Write(tail[:])
	return err
}

// Rows returns how many examples have been sealed into chunks so far.
func (cw *Writer) Rows() int64 { return cw.rows }

func (cw *Writer) write(b []byte) error {
	if _, err := cw.w.Write(b); err != nil {
		return err
	}
	cw.crc.Write(b)
	cw.off += int64(len(b))
	return nil
}

var zeros [8]byte

func (cw *Writer) writeZeros(n int) error {
	if n == 0 {
		return nil
	}
	return cw.write(zeros[:n])
}

// writeFloats streams a float64 column as little-endian bytes through the
// reusable scratch buffer.
func (cw *Writer) writeFloats(col []float64) error {
	cw.grow(len(col) * 8)
	for i, v := range col {
		binary.LittleEndian.PutUint64(cw.scratch[i*8:], math.Float64bits(v))
	}
	return cw.write(cw.scratch[:len(col)*8])
}

func (cw *Writer) writeInts(col []int64) error {
	cw.grow(len(col) * 8)
	for i, v := range col {
		binary.LittleEndian.PutUint64(cw.scratch[i*8:], uint64(v))
	}
	return cw.write(cw.scratch[:len(col)*8])
}

func (cw *Writer) grow(n int) {
	if cap(cw.scratch) < n {
		cw.scratch = make([]byte, n)
	}
}

// WriteDataset writes a row-materialized dataset to path atomically
// (temp + fsync + rename, like every other artifact in the repo). Feature
// names are synthesized as f0..fN-1 when the dataset carries none.
func WriteDataset(path string, d *ml.Dataset, config string) error {
	if !d.HasRows() {
		return fmt.Errorf("colstore: dataset has no materialized feature rows")
	}
	names := d.FeatureNames
	if len(names) == 0 {
		names = make([]string, d.Dim())
		for j := range names {
			names[j] = fmt.Sprintf("f%d", j)
		}
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		cw, err := NewWriter(bw, names, config)
		if err != nil {
			return err
		}
		for i := range d.Examples {
			if err := cw.Append(&d.Examples[i]); err != nil {
				return err
			}
		}
		if err := cw.Finish(); err != nil {
			return err
		}
		return bw.Flush()
	})
}
