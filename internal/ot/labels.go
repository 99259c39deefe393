package ot

import "maxelerator/internal/label"

// SendLabels transfers one wire-label pair per evaluator input bit
// through the extension session: the receiver learns exactly the label
// matching each of its choice bits. pairs is read in place and not
// retained.
func SendLabels(es *ExtensionSender, pairs []label.Pair) error {
	return send(es, len(pairs), func(j int) (label.Label, label.Label) { return pairs[j].False, pairs[j].True })
}

// ReceiveLabels obtains the active labels for the receiver's input
// bits. The returned slice is the caller's.
func ReceiveLabels(er *ExtensionReceiver, choices []bool) ([]label.Label, error) {
	return receive[label.Label](er, choices)
}
