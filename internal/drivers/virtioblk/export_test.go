package virtioblk

// Indirect reports whether indirect descriptors were negotiated.
func (d *Device) Indirect() bool { return d.indirect }
