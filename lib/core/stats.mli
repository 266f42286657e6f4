(** Derived model constants (Section 2.1 of the paper).

    From an instance and the network penalty factor [p], this module
    precomputes everything the objective needs:

    - [W_{a,q} = w_a · f_q · n_{a,q}] — estimated bytes attribute [a] costs
      per evaluation of query [q] (zero when [q] does not touch [a]'s
      table);
    - [c1(a,t) = Σ_q W_{a,q} γ_{q,t} (β_{a,q}(1-δ_q) - p·α_{a,q}·δ_q)] —
      the coefficient of the quadratic term [x_{t,s}·y_{a,s}];
    - [c2(a)  = Σ_q W_{a,q} δ_q (β_{a,q} + p·α_{a,q})] — the coefficient of
      the linear term [y_{a,s}];
    - [c3(a,t) = Σ_q W_{a,q} γ_{q,t} β_{a,q} (1-δ_q)] and
      [c4(a) = Σ_q W_{a,q} β_{a,q} δ_q] — the load-balancing work terms
      (equation (5));
    - [φ_{a,t}] — whether any read query of transaction [t] accesses
      attribute [a] (the single-sitedness coupling).

    All of these are static once the instance is fixed, as the paper notes
    after program (4). *)

type t = private {
  p : float;          (** network penalty factor used to build [c1]/[c2] *)
  num_attrs : int;
  num_txns : int;
  num_queries : int;
  c1 : Vec.mat;              (** indexed [{t, a}] *)
  c2 : float array;          (** indexed [a] *)
  c3 : Vec.mat;              (** indexed [{t, a}]; always >= 0 *)
  c4 : float array;          (** indexed [a]; always >= 0 *)
  phi : bool array array;    (** indexed [t].(a) *)
  total_weight : float;      (** Σ_{a,q} W_{a,q}·β_{a,q}: scale of the instance *)
}

val compute : Instance.t -> p:float -> t

val w : Instance.t -> a:int -> q:int -> float
(** [W_{a,q}]; zero if the query does not touch the attribute's table. *)

