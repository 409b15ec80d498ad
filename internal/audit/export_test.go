package audit

// FoldCounts returns how many replayed epoch copies Fold was handed and
// how many of them it folded rather than delivered.
func FoldCounts(a *Auditor) (copies, folded int64) { return a.copies, a.folded }
