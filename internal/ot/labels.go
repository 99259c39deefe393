package ot

import "maxelerator/internal/label"

// SendLabels transfers one wire-label pair per evaluator input bit
// through the extension session: the receiver learns exactly the label
// matching each of its choice bits. pairs is read in place and not
// retained.
func SendLabels(es *ExtensionSender, pairs []label.Pair) error {
	return es.ship(AnswerLabels(es, pairs))
}

// AnswerLabels is SendLabels without the send: it reads the receiver's
// u matrix and returns the ciphertext frame that answers it, for the
// caller to send next on the same connection, before the sender's next
// batch, which may reuse the frame's buffer.
func AnswerLabels(es *ExtensionSender, pairs []label.Pair) ([]byte, error) {
	return answer(es, len(pairs), func(j int) (label.Label, label.Label) { return pairs[j].False, pairs[j].True })
}

// ReceiveLabels obtains the active labels for the receiver's input
// bits: RequestLabels, then FinishLabels. The returned slice is the
// caller's.
func ReceiveLabels(er *ExtensionReceiver, choices []bool) ([]label.Label, error) {
	return receive[label.Label](er, choices)
}

// RequestLabels sends the u matrix for the receiver's input bits, which
// must not change until FinishLabels; see ExtensionReceiver for the
// order the two halves keep.
func RequestLabels(er *ExtensionReceiver, choices []bool) (Pending[label.Label], error) {
	return request[label.Label](er, choices)
}

// FinishLabels reads the sender's ciphertexts for p and returns its
// active labels, the caller's.
func FinishLabels(er *ExtensionReceiver, p Pending[label.Label]) ([]label.Label, error) {
	return finish(er, p)
}
