package fft

// The assembly stage bodies. Lengths, strides and widths count
// complex128 elements; every pointer addresses the first element the call
// transforms, and the caller has checked that the whole region lies in
// its slice.

// fwdStageAVX2 runs the forward radix-4 stage of quarter span q ≥ 2 over
// d[0:n], twiddles read from the planes at tw (w1 = tw[0:q], w2 = tw[q:2q],
// w3 = tw[2q:3q]).
//
//go:noescape
func fwdStageAVX2(d *complex128, n, q int, tw *complex128)

// invStageAVX2 is the inverse radix-4 stage, as fwdStageAVX2.
//
//go:noescape
func invStageAVX2(d *complex128, n, q int, tw *complex128)

// fwdColsAVX2 runs the forward radix-4 stage of quarter span q ≥ 1 down
// n rows of stride elements, over w ≥ 1 columns from p. The j = 0 rows
// are not multiplied; with q = 1 it is the span-4 tail and tw is not read.
//
//go:noescape
func fwdColsAVX2(p *complex128, stride, n, q, w int, tw *complex128)

// invColsAVX2 is the inverse radix-4 column stage, as fwdColsAVX2.
//
//go:noescape
func invColsAVX2(p *complex128, stride, n, q, w int, tw *complex128)

// cols2AVX2 runs the span-2 pass down n rows of stride elements, over w ≥ 1
// columns from p.
//
//go:noescape
func cols2AVX2(p *complex128, stride, n, w int)

// fwdTailAVX2 runs the forward span-4 tail over d[0:n], n a multiple of
// 8: two groups a pass, gathered so that each register holds one row of
// both (a 128-bit load and an insert), through the column body's
// butterfly.
//
//go:noescape
func fwdTailAVX2(d *complex128, n int)

// invTailAVX2 is the inverse span-4 tail, as fwdTailAVX2.
//
//go:noescape
func invTailAVX2(d *complex128, n int)

// tail2AVX2 runs the span-2 tail over d[0:n], n a multiple of 8: four
// groups a pass, two a register after the same gathering.
//
//go:noescape
func tail2AVX2(d *complex128, n int)

// forwardAVX2 is the AVX2 encoding of forward.
func (k *kernel) forwardAVX2(data []complex128) {
	data = data[:k.n:k.n]
	for s := range k.tw {
		_, q, w1, _, _ := k.stage(s)
		fwdStageAVX2(&data[0], k.n, q, &w1[0])
	}
	k.rowTailAVX2(data, fwdTailAVX2, fwdColsAVX2)
}

// inverseAVX2 is the AVX2 encoding of inverse.
func (k *kernel) inverseAVX2(data []complex128) {
	data = data[:k.n:k.n]
	k.rowTailAVX2(data, invTailAVX2, invColsAVX2)
	for s := len(k.tw) - 1; s >= 0; s-- {
		_, q, w1, _, _ := k.stage(s)
		invStageAVX2(&data[0], k.n, q, &w1[0])
	}
}

// rowTailAVX2 runs the twiddle-free tail of one contiguous transform at
// full width, two groups a pass (tail4, the direction's span-4 body, or
// tail2AVX2). A transform that is a single group (n = 2 or 4) has no
// second group to pair with, and takes the column body's one-column step
// (stage, at stride 1).
func (k *kernel) rowTailAVX2(data []complex128, tail4 func(d *complex128, n int),
	stage func(p *complex128, stride, n, q, w int, tw *complex128)) {
	switch span := k.tailSpan(); {
	case span == k.n:
		k.tailAVX2(&data[0], 1, 1, stage)
	case span == 4:
		tail4(&data[0], k.n)
	case span == 2:
		tail2AVX2(&data[0], k.n)
	}
}

// forwardColsAVX2 is the AVX2 encoding of forwardCols.
func (k *kernel) forwardColsAVX2(data []complex128, stride, r0, c0, c1 int) {
	if c1 <= c0 {
		return
	}
	p := &data[r0*stride+c0 : (r0+k.n-1)*stride+c1][0]
	for s := range k.tw {
		_, q, w1, _, _ := k.stage(s)
		fwdColsAVX2(p, stride, k.n, q, c1-c0, &w1[0])
	}
	k.tailAVX2(p, stride, c1-c0, fwdColsAVX2)
}

// inverseColsAVX2 is the AVX2 encoding of inverseCols.
func (k *kernel) inverseColsAVX2(data []complex128, stride, c0, c1 int) {
	if c1 <= c0 {
		return
	}
	p := &data[c0 : (k.n-1)*stride+c1][0]
	k.tailAVX2(p, stride, c1-c0, invColsAVX2)
	for s := len(k.tw) - 1; s >= 0; s-- {
		_, q, w1, _, _ := k.stage(s)
		invColsAVX2(p, stride, k.n, q, c1-c0, &w1[0])
	}
}

// tailAVX2 runs the twiddle-free tail: the radix-4 column stage at q = 1
// (the body of the direction, passed as stage) or the span-2 pass.
func (k *kernel) tailAVX2(p *complex128, stride, w int,
	stage func(p *complex128, stride, n, q, w int, tw *complex128)) {
	switch k.tailSpan() {
	case 4:
		stage(p, stride, k.n, 1, w, nil)
	case 2:
		cols2AVX2(p, stride, k.n, w)
	}
}

// mirrorAVX2 runs every octave of mirrorProduct over rows of n ≥ 2
// elements.
//
//go:noescape
func mirrorAVX2(da, sa, ka, db, sb, kb *complex128, n int, self bool)

// twiddleAVX2 sets dst[x] = src[x]·w for x < n, n ≥ 1.
//
//go:noescape
func twiddleAVX2(dst, src *complex128, n int, w complex128)

// narrowAVX2 harvests one row of a block: see harvestLinesAVX2.
//
//go:noescape
func narrowAVX2(dst *Lane, colStride, n int, src **complex128, groups int)

// mirrorProductAVX2 is the AVX2 encoding of mirrorProduct; a row of one
// element runs in Go.
func mirrorProductAVX2(da, sa, ka, db, sb, kb []complex128, self bool) {
	n := len(da)
	if n < 2 {
		mirrorProductGo(da, sa, ka, db, sb, kb, self)
		return
	}
	sa, ka, db, sb, kb = sa[:n:n], ka[:n:n], db[:n:n], sb[:n:n], kb[:n:n]
	mirrorAVX2(&da[0], &sa[0], &ka[0], &db[0], &sb[0], &kb[0], n, self)
}

// twiddleRowAVX2 is the AVX2 encoding of twiddleRow.
func twiddleRowAVX2(dst, src []complex128, w complex128) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	twiddleAVX2(&dst[0], &src[0], len(src), w)
}

// harvestLinesAVX2 is the AVX2 encoding of harvestLines: a row at a time,
// each position's 2·len(scr) lanes narrowed eight at a time — two
// VCVTPD2PS to float32, NarrowLane's rounding on the eight float32s'
// bits, one pack to sixteen bits — and stored in 16-byte runs.
func harvestLinesAVX2(scr []*[]complex128, pc, outRows, subCols int,
	dst []Lane, rowStride, colStride int) {
	lanes := 2 * len(scr)
	var buf [BlockLanes / 2]*complex128
	rows := buf[:len(scr)]
	for r := 0; r < outRows; r++ {
		for i, s := range scr {
			rows[i] = &(*s)[r*pc : r*pc+subCols][0]
		}
		line := dst[r*rowStride : r*rowStride+(subCols-1)*colStride+lanes]
		narrowAVX2(&line[0], colStride, subCols, &rows[0], lanes/8)
	}
}
