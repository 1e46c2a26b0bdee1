// Package pbio implements a record-oriented binary wire format with
// out-of-band meta-data, modeled on the Portable Binary Input/Output (PBIO)
// system used by the ICDCS 2005 "Message Morphing" paper.
//
// Writers declare the names, kinds, sizes and positions of the fields in the
// records they send (a Format). Readers declare the formats they understand.
// The encoded byte stream carries only a 64-bit format fingerprint plus the
// raw field data; the Format itself travels out-of-band (see EncodeFormat and
// the wire package), so per-message meta-data overhead stays under 30 bytes.
//
// There is one codec: Record / Value, encoded by EncodeRecord and decoded
// by DecodeRecord, the form the morphing engine works in because it learns
// formats only at run time. Applications that keep their data in tagged Go
// structs declare the layout once through a Registry and cross to Records
// at the boundary (Registry.ToRecord, Registry.FromRecord); the Registry
// derives each type's Format and field indices once and reuses them for
// every message. A Plan is a compiled conversion between two formats, the
// one plan every conversion lane runs: Plan.Decode folds it into decoding,
// reading a payload of one format straight into a record of another,
// Plan.Convert runs it over a record, and DecodePayload is decoding
// through the nil (identity) plan. A plan entry may build a list from some
// of a source list's elements (Each), which is how a loop that only moves
// list elements, such as the paper's Figure 5, runs inside the decoder.
//
// All multi-byte quantities are little-endian. Strings and dynamic lists are
// length-prefixed with unsigned varints; complex (nested record) fields are
// encoded inline.
package pbio
