package trace

import "fmt"

// exceptions returns the indices of the exception records of a block.
func exceptions(data []byte) ([]int, error) {
	d := decoder{b: data, i: len(blockMagic)}
	d.uvarint() // count
	d.uvarint() // first PC
	for range d.uvarint() {
		d.varint()
		d.skip(4)
		d.varint()
	}
	var exc []int
	for at, n := -1, d.uvarint(); n > 0; n-- {
		at += 1 + int(d.uvarint())
		exc = append(exc, at)
	}
	if d.err != nil {
		return nil, fmt.Errorf("reading the exception list: %w", d.err)
	}
	return exc, nil
}

// Exceptions lets the external tests count a block's exception records.
var Exceptions = exceptions
