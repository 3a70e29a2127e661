type t = { words : int array; n : int }

let bits_per_word = 63

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word + 1) 0; n }

let capacity b = b.n

let check b i =
  if i < 0 || i >= b.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0, %d)" i b.n)

let mem b i =
  check b i;
  b.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add b i =
  check b i;
  let w = i / bits_per_word in
  b.words.(w) <- b.words.(w) lor (1 lsl (i mod bits_per_word))

let remove b i =
  check b i;
  let w = i / bits_per_word in
  b.words.(w) <- b.words.(w) land lnot (1 lsl (i mod bits_per_word))

let set b i v = if v then add b i else remove b i

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal b = Array.fold_left (fun acc w -> acc + popcount w) 0 b.words

let is_empty b = Array.for_all (fun w -> w = 0) b.words

let clear b = Array.fill b.words 0 (Array.length b.words) 0

(* Whole words are all ones (-1); the last, partial word gets only its
   low [n mod bits_per_word] bits. *)
let fill b =
  let full = b.n / bits_per_word in
  Array.fill b.words 0 full (-1);
  let rest = b.n mod bits_per_word in
  if rest > 0 then b.words.(full) <- (1 lsl rest) - 1

let copy b = { b with words = Array.copy b.words }

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  let rec go i =
    i >= Array.length a.words || (a.words.(i) = b.words.(i) && go (i + 1))
  in
  go 0

let subset a b =
  same_capacity a b;
  let rec go i =
    i >= Array.length a.words
    || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

let union_into dst src =
  same_capacity dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let inter_into dst src =
  same_capacity dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land w) src.words

let diff_into dst src =
  same_capacity dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land lnot w) src.words

(* Index of the lowest set bit of a non-zero word, by binary search. *)
let lowest_bit x =
  let x = ref x and i = ref 0 in
  if !x land 0xFFFFFFFF = 0 then (x := !x lsr 32; i := 32);
  if !x land 0xFFFF = 0 then (x := !x lsr 16; i := !i + 16);
  if !x land 0xFF = 0 then (x := !x lsr 8; i := !i + 8);
  if !x land 0xF = 0 then (x := !x lsr 4; i := !i + 4);
  if !x land 0x3 = 0 then (x := !x lsr 2; i := !i + 2);
  if !x land 0x1 = 0 then i := !i + 1;
  !i

(* Skips zero words and jumps from set bit to set bit.  The word is
   re-read after each call to [f], masked above the bit just visited,
   so [f] may add or remove members exactly as with a bit-by-bit scan. *)
let iter f b =
  let words = b.words in
  for w = 0 to Array.length words - 1 do
    let x = ref words.(w) in
    while !x <> 0 do
      let bit = lowest_bit !x in
      f ((w * bits_per_word) + bit);
      x := words.(w) land lnot ((2 lsl bit) - 1)
    done
  done

let fold f b init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) b;
  !acc

let to_list b = List.rev (fold (fun i acc -> i :: acc) b [])

let of_list n xs =
  let b = create n in
  List.iter (add b) xs;
  b

let choose b =
  let rec go w =
    if w >= Array.length b.words then None
    else if b.words.(w) <> 0 then
      Some ((w * bits_per_word) + lowest_bit b.words.(w))
    else go (w + 1)
  in
  go 0

let hash b = Array.fold_left (fun acc w -> (acc * 1000003) lxor w) b.n b.words

let pp ppf b =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list b)
