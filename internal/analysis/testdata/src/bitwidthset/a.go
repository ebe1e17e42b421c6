package fixture

type Plan struct {
	Bits   []int
	KVBits int
}

func apply(bits int) int { return bits }

func quantize(wbits, kvBits int) int { return wbits + kvBits }

func build() []int {
	p := Plan{Bits: []int{3, 4, 8, 16}, KVBits: 8} // in-set literals are fine
	q := Plan{Bits: []int{3, 5, 16}, KVBits: 2}    // want "bitwidth 5"
	sum := apply(4)
	sum += apply(7)       // want "bitwidth 7"
	sum += quantize(6, 2) // want "bitwidth 6"
	p.KVBits = 12         // want "bitwidth 12"
	q.KVBits = 0          // 0 is the unset/FP16 sentinel
	layerBits := 5        // want "bitwidth 5"
	demoBits := 9         //llmpq:allow(bitwidthset): demo of a justified suppression
	return []int{sum, p.KVBits, q.KVBits, layerBits, demoBits}
}
