package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// pairSpec is a pair in the wire format, an edge [u, v] or a link
// [left, right]: exactly two integers. A bare [2]int would take [2] as
// (2, 0) and [1, 2, 7] as (1, 2); both decode paths refuse them. The ends
// stay ints until checkGraph or checkSeeds has compared them with their
// node counts, so 4294967297 cannot wrap to node 1 on the way to a NodeID.
type pairSpec [2]int

// UnmarshalJSON applies the pair rule on the encoding/json path, which has
// already checked that b is one well-formed JSON value.
func (p *pairSpec) UnmarshalJSON(b []byte) error {
	q, i, ok := readPairAt(b, 0)
	if !ok || skipSpace(b, i) != len(b) {
		return fmt.Errorf("pair %.40s: want exactly two integers", b)
	}
	*p = q
	return nil
}

// readJob reads a POST .../jobs body whole and decodes it. The buffer grows
// as bytes arrive, up to the http.MaxBytesReader bound tenantRoute
// installs; a claimed Content-Length never sizes it.
func readJob(r io.Reader) (jobRequest, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return jobRequest{}, err
	}
	return decodeJob(buf.Bytes())
}

// decodeJob decodes a POST .../jobs body. A body in the canonical encoding
// (decodeCanonical) is parsed in one pass; any other body goes through
// encoding/json exactly as it always has, including its acceptance of
// trailing bytes after the object. Both paths apply the pair rule.
func decodeJob(body []byte) (jobRequest, error) {
	if req, ok := decodeCanonical(body); ok {
		return req, nil
	}
	var req jobRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeCanonical parses a job body in the canonical encoding every client
// in this repository produces: one object with the plain keys g1 and g2
// (each {"nodes", "edges"}), seeds, options, untilStable and maxSweeps,
// each at most once, with JSON whitespace anywhere between tokens. Pair
// arrays hold integers, and options is handed to encoding/json as its raw
// bytes. It reports false, and the caller falls back to encoding/json, on
// anything else: unknown, escaped, case-variant or duplicate keys, null,
// fractions and exponents, malformed pairs, trailing bytes. What it
// accepts, it returns exactly as encoding/json would
// (FuzzDecodeJobRequest).
func decodeCanonical(body []byte) (jobRequest, bool) {
	var req jobRequest
	p := jobParser{b: body}
	var seen keySet
	ok := p.readObject(func(key []byte) bool {
		switch string(key) {
		case "g1":
			return seen.first(1) && p.readGraph(&req.G1)
		case "g2":
			return seen.first(2) && p.readGraph(&req.G2)
		case "seeds":
			return seen.first(4) && p.readPairs(&req.Seeds)
		case "options":
			return seen.first(8) && p.readOptions(&req.Options)
		case "untilStable":
			return seen.first(16) && p.readBool(&req.UntilStable)
		case "maxSweeps":
			return seen.first(32) && p.readInt(&req.MaxSweeps)
		}
		return false
	})
	return req, ok && skipSpace(body, p.i) == len(body)
}

// keySet records the keys an object has used, so a duplicate declines.
type keySet uint8

func (s *keySet) first(key keySet) bool {
	dup := *s&key != 0
	*s |= key
	return !dup
}

// jobParser is decodeCanonical's cursor over the body. Every method reads
// one token or value at b[i:], skipping the whitespace before it, and
// reports false to decline the body.
type jobParser struct {
	b []byte
	i int
}

// eat consumes the structural byte c.
func (p *jobParser) eat(c byte) bool {
	p.i = skipSpace(p.b, p.i)
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// readObject reads an object, calling field with each key once the key's
// colon is consumed; field reads the value.
func (p *jobParser) readObject(field func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		if !p.eat('"') {
			return false
		}
		// The key runs to the next quote. An escaped key ends early or
		// keeps its backslash, so it matches no field and field declines.
		n := bytes.IndexByte(p.b[p.i:], '"')
		if n < 0 {
			return false
		}
		key := p.b[p.i : p.i+n]
		p.i += n + 1
		if !p.eat(':') || !field(key) {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// readGraph reads a {"nodes", "edges"} object.
func (p *jobParser) readGraph(g *graphSpec) bool {
	var seen keySet
	return p.readObject(func(key []byte) bool {
		switch string(key) {
		case "nodes":
			return seen.first(1) && p.readInt(&g.Nodes)
		case "edges":
			return seen.first(2) && p.readPairs(&g.Edges)
		}
		return false
	})
}

// readPairs reads an array of pairs into a slice sized once: a count pass
// over the array's bytes, then one parse pass that fills it and checks the
// grammar. The count is bounded by the bytes actually received — a
// canonical array of n pairs spans at least 6n bytes after its '[' — so a
// forged array cannot allocate more pairs than a canonical one that long.
func (p *jobParser) readPairs(dst *[]pairSpec) bool {
	if !p.eat('[') {
		return false
	}
	n, size := countPairs(p.b[p.i:])
	if 6*n > size {
		return false
	}
	out := make([]pairSpec, n)
	for k := range out {
		if k > 0 && !p.eat(',') {
			return false
		}
		var ok bool
		if out[k], p.i, ok = readPairAt(p.b, p.i); !ok {
			return false
		}
	}
	*dst = out
	return p.eat(']')
}

// countPairs counts the elements of an array whose '[' is already
// consumed — the brackets opened at depth zero — and returns the count and
// the bytes up to and including the array's closing ']'. It does not
// check the grammar: on a malformed array the count is merely wrong, and
// the parse pass declines.
func countPairs(b []byte) (n, size int) {
	depth := 0
	for i, c := range b {
		switch c {
		case '[':
			if depth == 0 {
				n++
			}
			depth++
		case ']':
			if depth == 0 {
				return n, i + 1
			}
			depth--
		}
	}
	return n, len(b)
}

// readOptions decodes the options object with encoding/json, which also
// finds where the object ends.
func (p *jobParser) readOptions(o *optionsSpec) bool {
	p.i = skipSpace(p.b, p.i)
	if p.i >= len(p.b) || p.b[p.i] != '{' {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(p.b[p.i:]))
	if dec.Decode(o) != nil {
		return false
	}
	p.i += int(dec.InputOffset())
	return true
}

// readInt reads an integer value.
func (p *jobParser) readInt(dst *int) bool {
	var ok bool
	*dst, p.i, ok = readIntAt(p.b, skipSpace(p.b, p.i))
	return ok
}

// readBool reads true or false.
func (p *jobParser) readBool(dst *bool) bool {
	p.i = skipSpace(p.b, p.i)
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		p.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		p.i += 5
	default:
		return false
	}
	return true
}

// readPairAt reads a pair [a, b] at b[i:], whitespace allowed around every
// token, and returns it with the index past its ']'.
func readPairAt(b []byte, i int) (p pairSpec, next int, ok bool) {
	if i = skipSpace(b, i); i >= len(b) || b[i] != '[' {
		return p, i, false
	}
	if p[0], i, ok = readIntAt(b, skipSpace(b, i+1)); !ok {
		return p, i, false
	}
	if i = skipSpace(b, i); i >= len(b) || b[i] != ',' {
		return p, i, false
	}
	if p[1], i, ok = readIntAt(b, skipSpace(b, i+1)); !ok {
		return p, i, false
	}
	if i = skipSpace(b, i); i >= len(b) || b[i] != ']' {
		return p, i, false
	}
	return p, i + 1, true
}

// readIntAt reads a JSON integer at b[i:] (an optional minus, then digits
// without a leading zero) that fits an int: what encoding/json, through
// strconv.ParseInt, accepts for an int field. A fraction or an exponent
// stops the scan at its '.' or 'e', which no caller accepts next.
func readIntAt(b []byte, i int) (v, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if i-start == 19 { // 19 digits always fit a uint64; 20 never fit an int
			return 0, i, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start, b[start] == '0' && i-start > 1:
		return 0, i, false
	case neg && u <= uint64(math.MaxInt)+1:
		return int(-u), i, true // two's complement: u = MaxInt+1 gives MinInt
	case !neg && u <= math.MaxInt:
		return int(u), i, true
	}
	return 0, i, false
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i, whitespace being what JSON allows between tokens.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}
