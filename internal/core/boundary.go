package core

// Op-boundary predicate shared by the two crash oracles of internal/torture
// (the script mode's prefix oracle and the region oracle). MGSP advertises
// operation-level atomicity (vfs.OpAtomic): after a crash and recovery, every
// byte region must read as exactly one of the states an operation boundary
// could have left — never a torn interleaving of two ops and never a
// partially applied op. The oracles express each check as "the recovered
// bytes equal one of these candidate images".

// MatchCandidate returns the index of the first candidate image equal to
// got, or -1 if the recovered bytes match none of them — an op-atomicity
// violation. Candidates shorter or longer than got never match.
func MatchCandidate(got []byte, cands [][]byte) int {
	for i, c := range cands {
		if len(c) != len(got) {
			continue
		}
		if FirstDivergence(got, c) == -1 {
			return i
		}
	}
	return -1
}

// FirstDivergence returns the offset of the first byte where a and b differ
// (comparing the shorter length), or -1 if they are equal. Harnesses use it
// to report where a torn region starts.
func FirstDivergence(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
